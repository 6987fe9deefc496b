// The VID hash table shared by neighbor sampling (S) and graph reindexing
// (R): original VID -> subgraph-local new VID, new VIDs handed out densely
// in insertion order (paper Fig 4, step 2).
//
// Both tasks hammer this table from multiple threads, which is the lock
// contention the service-wide tensor scheduler relaxes (paper Fig 14).
// The implementation uses striped locking and counts both acquisitions and
// *contended* acquisitions (a failed try_lock before blocking), so the
// contention experiments can report real measurements.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"

namespace gt::sampling {

class VidHashTable {
 public:
  /// `stripes` must be a power of two.
  explicit VidHashTable(std::size_t stripes = 64);

  /// Get the new VID for `orig`, inserting the next dense id if absent.
  /// `*is_new` (optional) reports whether an insertion happened.
  /// Thread-safe.
  Vid insert_or_get(Vid orig, bool* is_new = nullptr);

  /// Lookup only; returns kInvalidVid if absent. Thread-safe.
  Vid lookup(Vid orig) const;

  /// Number of distinct vertices inserted so far.
  Vid size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  /// Assign the insertion-ordered original VIDs (new VID -> original VID)
  /// to `out`, reusing its capacity. Only valid while no concurrent
  /// insertions run.
  void insertion_order_into(std::vector<Vid>& out) const;

  /// Drop every entry but keep bucket arrays and the order vector's
  /// capacity, so a reused table reaches steady state with no rehashing.
  /// Contention counters restart too: a cleared table reports per-run
  /// counts exactly like a freshly constructed one. Not thread-safe.
  void clear();

  // -- Contention accounting -------------------------------------------------
  std::uint64_t lock_acquisitions() const noexcept {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended_acquisitions() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }
  void reset_contention_counters() noexcept;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<Vid, Vid> map;
  };

  std::size_t stripe_of(Vid orig) const noexcept {
    // Multiplicative hash so consecutive VIDs spread over stripes.
    return (orig * 0x9e3779b1u) & (stripes_.size() - 1);
  }

  std::vector<Stripe> stripes_;
  std::atomic<Vid> next_id_{0};
  // Dense id -> original vid; guarded by order_mu_.
  mutable std::mutex order_mu_;
  std::vector<Vid> order_;
  mutable std::atomic<std::uint64_t> acquisitions_{0};
  mutable std::atomic<std::uint64_t> contended_{0};
};

}  // namespace gt::sampling
