// Per-SM cache model.
//
// Lines are keyed at (buffer, row, chunk) granularity — one vertex's feature
// vector (or one feature-chunk of it) is the unit GNN kernels move, and the
// paper's "cache bloat" metric is defined exactly as bytes of embedding data
// loaded into SM caches relative to the embedding table size (Fig 6b). LRU
// replacement, write-allocate.
//
// Layout. The model runs once per simulated load/store, so it is laid out
// flat rather than as node containers:
//   * a slab of Lines linked into the LRU order by intrusive uint32 prev/next
//     indices; evicted lines go on a free list, so after warm-up a miss
//     allocates nothing;
//   * an open-addressing index (power-of-two slots, linear probing, grown at
//     load factor 1/2) from key to slab position, with backward-shift
//     deletion so evictions leave no tombstones. A slot holds only a stamp
//     and a slab position (16 B); keys are compared in the slab line, which
//     a hit touches anyway;
//   * a 64-bit generation stamp: a slot is live only while its stamp equals
//     the cache's generation, so clear() is O(1) — it bumps the generation
//     and resets the list heads and counters, keeping the slab and index at
//     their high-water size for the next kernel. At one clear per kernel the
//     stamp cannot wrap.
// The replacement policy is exactly the textbook list+map LRU (the tests
// keep one as an oracle): the same hit/miss sequence and eviction order, so
// every byte count, and everything priced from them, is unchanged by the
// layout.
//
// Runs. Dense Apply kernels read every row of the weight matrix, in
// ascending order, once per block. access_run() models such a stream as
// exactly the per-row access() calls it replaces, but pays for them in O(1)
// once the rows are known to sit together. A one-slot memo {buffer, first,
// n, lo, hi} records that rows [first, first+n) of `buffer` (chunk 0) are
// resident as one contiguous LRU segment, with row first+n-1 (slab line
// `hi`) head-ward and row `first` (`lo`) tail-ward — the order an
// ascending run leaves them in. While that holds, the n accesses are all
// hits, and their whole effect is to splice the segment to the front and
// add n * bytes to the hit count. The invariant survives misses (they
// insert at the head, outside the segment) and hits or evictions of other
// lines (they relink around it). Three events break it, and each drops the
// memo: a non-head hit on a member (move_to_front), the eviction of a
// member (evict_lru), and clear(). Without a memo, access_run() probes row
// `first` and walks `prev` n-1 times comparing keys, which mutates nothing;
// if the walk proves the segment it splices and sets the memo, otherwise it
// falls back to the n plain accesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gt::gpusim {

struct CacheKey {
  std::uint32_t buffer = 0;
  std::uint32_t row = 0;
  std::uint32_t chunk = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(k.buffer) << 40) ^
                      (static_cast<std::uint64_t>(k.row) << 8) ^ k.chunk;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

class SmCache {
 public:
  explicit SmCache(std::size_t capacity_bytes);

  /// Touch a line of `bytes`. Returns true on hit. On miss the line is
  /// loaded (LRU evictions as needed) and `loaded_bytes` grows. A line
  /// larger than the whole cache is loaded (streamed) but not retained.
  bool access(const CacheKey& key, std::size_t bytes) {
    const std::uint32_t i = find(key);
    if (i == kNil) {
      miss(key, bytes);
      return false;
    }
    move_to_front(i);
    hit_bytes_ += bytes;
    return true;
  }

  /// Exactly `n` calls access({buffer, first + k, 0}, bytes) for k
  /// ascending, in O(1) while the run memo holds (see the header comment).
  void access_run(std::uint32_t buffer, std::uint32_t first, std::uint32_t n,
                  std::size_t bytes);

  void clear() noexcept;

  std::size_t loaded_bytes() const noexcept { return loaded_bytes_; }
  std::size_t hit_bytes() const noexcept { return hit_bytes_; }
  std::size_t resident_bytes() const noexcept { return resident_bytes_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Line {
    CacheKey key;
    std::uint32_t prev = kNil;  // towards the MRU end (head_)
    std::uint32_t next = kNil;  // towards the LRU end (tail_)
    std::size_t bytes = 0;
  };
  static_assert(sizeof(Line) <= 32);

  struct Slot {
    std::uint64_t gen = 0;  // live iff == gen_
    std::uint32_t line = 0;
  };

  void move_to_front(std::uint32_t i) noexcept {
    if (i == head_) return;
    Line& l = slab_[i];
    if (in_run(l.key)) run_.n = 0;
    slab_[l.prev].next = l.next;
    if (l.next == kNil)
      tail_ = l.prev;
    else
      slab_[l.next].prev = l.prev;
    l.prev = kNil;
    l.next = head_;
    slab_[head_].prev = i;
    head_ = i;
  }

  // The memoised run: rows [first, first+n) of `buffer`, chunk 0, resident
  // as one LRU segment from slab line `hi` (row first+n-1, head-ward) to
  // `lo` (row first). n == 0 means no memo.
  struct Run {
    std::uint32_t buffer = 0;
    std::uint32_t first = 0;
    std::uint32_t n = 0;
    std::uint32_t lo = kNil;
    std::uint32_t hi = kNil;
  };

  bool in_run(const CacheKey& key) const noexcept {
    return key.row - run_.first < run_.n && key.buffer == run_.buffer &&
           key.chunk == 0;
  }

  std::uint32_t find(const CacheKey& key) const noexcept {
    for (std::size_t i = CacheKeyHash{}(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return kNil;
      if (slab_[s.line].key == key) return s.line;
    }
  }

  void splice_to_front(std::uint32_t hi, std::uint32_t lo) noexcept;
  void miss(const CacheKey& key, std::size_t bytes);
  void evict_lru();
  void index_insert(std::uint32_t line) noexcept;
  void index_erase(const CacheKey& key) noexcept;
  void grow_index();

  std::size_t capacity_bytes_;
  std::size_t resident_bytes_ = 0;
  std::size_t loaded_bytes_ = 0;  // cumulative fill traffic (misses)
  std::size_t hit_bytes_ = 0;

  std::vector<Line> slab_;
  std::size_t slab_used_ = 0;  // slab_[0, slab_used_) belongs to this gen
  std::uint32_t free_ = kNil;  // evicted lines, chained through `next`
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::size_t lines_ = 0;      // resident lines == live index slots

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint64_t gen_ = 1;

  Run run_;
};

}  // namespace gt::gpusim
