// Real (data-producing) preprocessing executor.
//
// The discrete-event planner prices schedules; this executor actually runs
// sampling, reindexing, and embedding lookup, structured like the
// service-wide tensor scheduler: A chunks of every sampling hop, hash
// updates (H) serialized in chunk order, then R per layer and K in row
// chunks. The chunks fan out over a thread pool when one is given and run
// inline otherwise; the result is bit-identical either way (tests enforce
// it). Real hash-table contention counters are reported for the Fig 14
// measurements.
//
// run() returns a fresh result; run_into() fills a caller-held
// PreprocResult + VidHashTable + PreprocScratch so the steady-state batch
// loop reuses every buffer (gt::BatchContext owns that trio).
#pragma once

#include <cstdint>
#include <span>

#include "datasets/embedding.hpp"
#include "graph/csr.hpp"
#include "sampling/lookup.hpp"
#include "sampling/reindex.hpp"
#include "sampling/sampler.hpp"
#include "tensor/matrix.hpp"
#include "util/thread_pool.hpp"

namespace gt::pipeline {

struct PreprocResult {
  sampling::SampledBatch batch;
  std::vector<sampling::LayerGraphHost> layers;  // per exec-layer
  Matrix embeddings;  // layer-0 input table; lent to the device session
  std::uint64_t hash_acquisitions = 0;
  std::uint64_t hash_contended = 0;

  /// Reset counters for a fresh batch; every vector keeps its capacity
  /// (the fillers overwrite the data in place).
  void clear_for_reuse() noexcept {
    hash_acquisitions = 0;
    hash_contended = 0;
  }
};

/// Reusable working memory the executor needs besides the result itself.
struct PreprocScratch {
  std::vector<Coo> layer_coo;  // per-layer reindex staging
};

class PreprocExecutor {
 public:
  PreprocExecutor(const Csr& graph, const EmbeddingTable& embeddings,
                  std::uint32_t fanout, std::uint32_t num_layers,
                  std::uint64_t seed, sampling::ReindexFormats formats);

  const sampling::NeighborSampler& sampler() const noexcept {
    return sampler_;
  }
  std::uint32_t num_layers() const noexcept { return num_layers_; }
  const sampling::ReindexFormats& formats() const noexcept {
    return formats_;
  }

  /// S hops, then R per layer, then K, into a fresh result. With a pool,
  /// A and K run in `chunks` chunks and the R layers concurrently.
  PreprocResult run(std::span<const Vid> batch_vids,
                    ThreadPool* pool = nullptr, std::size_t chunks = 1) const;

  /// run() into caller-held buffers: identical output, zero steady-state
  /// allocation on the pool-less path. `table` must be clear()ed by the
  /// caller. `gather == false` skips K and leaves `out.embeddings` 0 rows
  /// by the table's dim, for a caller that gathers the rows itself (the
  /// embedding-cache ring).
  void run_into(std::span<const Vid> batch_vids, sampling::VidHashTable& table,
                PreprocResult& out, PreprocScratch& scratch,
                ThreadPool* pool = nullptr, std::size_t chunks = 1,
                bool gather = true) const;

 private:
  const Csr& graph_;
  sampling::NeighborSampler sampler_;
  sampling::EmbeddingLookup lookup_;
  std::uint32_t num_layers_;
  sampling::ReindexFormats formats_;
};

}  // namespace gt::pipeline
