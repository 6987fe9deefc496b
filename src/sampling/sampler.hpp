// Neighbor sampling (paper §II-B, Fig 4a).
//
// Starting from a batch of destination vertices (hop 0), each hop samples
// up to `fanout` in-neighbors of every vertex in the previous vertex set,
// allocating dense new VIDs through the shared hash table in insertion
// order. Hop h produces the edges feeding execution-layer L-h (the paper
// numbers layers in the opposite direction: its "layer 2" processes hop 1
// and runs last; our exec-layer 0 runs first on the outermost hop).
//
// The per-hop work is split the way the contention-relaxed scheduler needs
// (Fig 14c): choose_neighbors is the pure algorithm part (A) — per-vertex
// RNG, no shared state, safe to fan out across threads — and
// insert_vertices is the hash-update part (H) that the scheduler
// serializes. Per-vertex RNG streams make the sampled edge set independent
// of thread scheduling.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sampling/hash_table.hpp"

namespace gt {
class ThreadPool;
}

namespace gt::sampling {

/// Neighbor-selection priority (paper §II-B: "picking n vertices following
/// a certain sampling priority (e.g., unique random)").
enum class SamplingPriority {
  kUniformRandom,   // GraphSAGE-style unique random (the paper's default)
  kDegreeWeighted,  // importance sampling: prefer high in-degree neighbors
                    // (FastGCN-flavoured, paper ref [32])
};

const char* to_string(SamplingPriority p);

/// Edges discovered while sampling one hop, in ORIGINAL VIDs. Reindexing
/// (R) later maps them through the hash table.
struct HopEdges {
  std::vector<Vid> src;
  std::vector<Vid> dst;
  std::size_t num_edges() const noexcept { return src.size(); }
};

/// Everything sampling produces for one batch.
struct SampledBatch {
  std::uint32_t num_layers = 0;
  std::vector<Vid> batch;      // original batch vids (hop 0, dense ids 0..B)
  std::vector<HopEdges> hops;  // hops[h] = edges discovered at hop h+1
  std::vector<Vid> set_sizes;  // |S_0| .. |S_L| (dense-id prefix sizes)
  std::vector<Vid> vid_order;  // new vid -> original vid

  /// Edge count of execution-layer `i` (= hops 1 .. L-i combined).
  Eid layer_edges(std::uint32_t exec_layer) const;
  /// Destination count of execution-layer `i` (= |S_{L-1-i}|).
  Vid layer_dst(std::uint32_t exec_layer) const {
    return set_sizes[num_layers - 1 - exec_layer];
  }
  /// Input-table rows of execution-layer `i` (= |S_{L-i}|).
  Vid layer_vertices(std::uint32_t exec_layer) const {
    return set_sizes[num_layers - exec_layer];
  }
  /// Total distinct vertices sampled.
  Vid total_vertices() const { return set_sizes.back(); }
};

class NeighborSampler {
 public:
  /// `graph` is the full dataset in dst-indexed CSR (in-neighbor lists).
  NeighborSampler(const Csr& graph, std::uint32_t fanout, std::uint64_t seed,
                  SamplingPriority priority = SamplingPriority::kUniformRandom);

  std::uint32_t fanout() const noexcept { return fanout_; }
  SamplingPriority priority() const noexcept { return priority_; }

  /// A-part: sample up to `fanout` in-neighbors of each frontier vertex
  /// (original VIDs). Pure w.r.t. the hash table; deterministic per vertex
  /// regardless of call partitioning. `hop` salts the RNG so a vertex
  /// re-expanded at another hop draws a fresh sample.
  HopEdges choose_neighbors(std::span<const Vid> frontier,
                            std::uint32_t hop) const;

  /// Allocation-free A-part: appends into `out`'s (cleared) edge vectors,
  /// reusing their capacity. Identical output to choose_neighbors.
  void choose_neighbors_into(std::span<const Vid> frontier, std::uint32_t hop,
                             HopEdges& out) const;

  /// H-part: allocate new VIDs for every endpoint of `edges` (dsts are
  /// already present; srcs may be new).
  static void insert_vertices(VidHashTable& table, const HopEdges& edges);

  /// End-to-end sampling of `layers` hops into a fresh result. `table`
  /// must be empty; it is filled as a side effect (reindexing reads it
  /// afterwards).
  SampledBatch sample(std::span<const Vid> batch, std::uint32_t layers,
                      VidHashTable& table) const;

  /// sample() into `out`, reusing the capacity of its vectors (hops,
  /// set_sizes, vid_order) across batches. `table` must still start empty
  /// — callers clear() a reused table first.
  ///
  /// Every hop runs A over the frontier in `chunks` chunks — on `pool`
  /// when one is given, inline otherwise — and then H serially in chunk
  /// order, so the new VIDs and the order of hash-table operations are the
  /// same for every pool and chunk count. Chunk 0 expands straight into
  /// the hop's edge list; only chunks 1.. are staged.
  void sample_into(std::span<const Vid> batch, std::uint32_t layers,
                   VidHashTable& table, SampledBatch& out,
                   ThreadPool* pool = nullptr, std::size_t chunks = 1) const;

  /// Deterministically pick a batch of distinct destination vertices.
  std::vector<Vid> pick_batch(std::size_t batch_size,
                              std::uint64_t batch_index) const;

 private:
  const Csr& graph_;
  std::uint32_t fanout_;
  std::uint64_t seed_;
  SamplingPriority priority_;
  std::vector<double> degree_weight_;  // kDegreeWeighted only
};

}  // namespace gt::sampling
