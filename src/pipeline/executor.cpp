#include "pipeline/executor.hpp"

#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gt::pipeline {

using sampling::SampledBatch;
using sampling::VidHashTable;

namespace {

/// Hash-table accounting: the legacy PreprocResult fields and the obs
/// registry report the same counts (a regression test keeps the Fig 14
/// numbers trustworthy).
void record_preproc_metrics(const PreprocResult& result) {
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("preproc.batches").add(1);
  m.counter("preproc.hash_acquisitions").add(result.hash_acquisitions);
  m.counter("preproc.hash_contended").add(result.hash_contended);
  m.counter("preproc.sampled_vertices").add(result.batch.total_vertices());
}

}  // namespace

PreprocExecutor::PreprocExecutor(const Csr& graph,
                                 const EmbeddingTable& embeddings,
                                 std::uint32_t fanout,
                                 std::uint32_t num_layers, std::uint64_t seed,
                                 sampling::ReindexFormats formats)
    : graph_(graph),
      sampler_(graph, fanout, seed),
      lookup_(embeddings),
      num_layers_(num_layers),
      formats_(formats) {
  if (num_layers == 0) throw std::invalid_argument("need >= 1 layer");
}

PreprocResult PreprocExecutor::run(std::span<const Vid> batch_vids,
                                   ThreadPool* pool,
                                   std::size_t chunks) const {
  PreprocResult result;
  VidHashTable table;
  PreprocScratch scratch;
  run_into(batch_vids, table, result, scratch, pool, chunks);
  return result;
}

void PreprocExecutor::run_into(std::span<const Vid> batch_vids,
                               VidHashTable& table, PreprocResult& out,
                               PreprocScratch& scratch, ThreadPool* pool,
                               std::size_t chunks, bool gather) const {
  GT_OBS_SCOPE_N(span, "preproc.run", "preproc");
  span.arg("batch_size", static_cast<std::int64_t>(batch_vids.size()));
  out.clear_for_reuse();
  scratch.layer_coo.resize(num_layers_);
  out.layers.resize(num_layers_);
  SampledBatch& sb = out.batch;
  {
    GT_STAGE(s_span, kSample, "S.sample", "sampling");
    sampler_.sample_into(batch_vids, num_layers_, table, sb, pool, chunks);
  }
  // R: one chunk per layer keeps each layer's scratch private. Fault checks
  // run on the calling thread (pool workers carry no fault scope).
  for (std::uint32_t l = 0; l < num_layers_; ++l)
    fault::check(fault::Site::kPreprocReindex, l);
  run_chunks(pool, 0, num_layers_, num_layers_,
             [&](std::size_t l, std::size_t, std::size_t) {
               GT_STAGE(r_span, kReindex, "R.layer", "reindex");
               r_span.arg("layer", static_cast<std::int64_t>(l));
               sampling::reindex_layer_into(
                   sb, table, static_cast<std::uint32_t>(l), formats_,
                   out.layers[l], scratch.layer_coo[l]);
             });
  if (!gather) {
    out.embeddings.resize(0, lookup_.table().dim());
  } else {
    // K: disjoint row ranges of the gathered table.
    GT_STAGE(k_span, kLookup, "K.lookup", "lookup");
    out.embeddings.resize(sb.vid_order.size(), lookup_.table().dim());
    run_chunks(pool, 0, sb.vid_order.size(), chunks,
               [&](std::size_t, std::size_t lo, std::size_t hi) {
                 lookup_.gather_chunk(sb.vid_order, lo, hi, out.embeddings);
               });
  }
  out.hash_acquisitions = table.lock_acquisitions();
  out.hash_contended = table.contended_acquisitions();
  record_preproc_metrics(out);
}

}  // namespace gt::pipeline
