#include "frameworks/baselines.hpp"

#include "frameworks/common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"

namespace gt::frameworks {

using gpusim::BufferId;
using gpusim::kInvalidBuffer;
using kernels::AggMode;
using kernels::EdgeWeightMode;
namespace dl = kernels::dl;
namespace graphsim = kernels::graphsim;
namespace napa = kernels::napa;

BaselineOptions pyg_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kDl;
  o.plan.strategy = pipeline::PreprocStrategy::kSerial;
  return o;
}

BaselineOptions pyg_mt_options() {
  BaselineOptions o = pyg_options();
  o.plan.strategy = pipeline::PreprocStrategy::kParallelTasks;
  return o;
}

BaselineOptions dgl_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kGraph;
  o.plan.strategy = pipeline::PreprocStrategy::kParallelTasks;
  o.overlap_compute = true;
  return o;
}

BaselineOptions gnnadvisor_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kAdvisor;
  o.plan.strategy = pipeline::PreprocStrategy::kSerial;
  return o;
}

BaselineOptions salient_options() {
  BaselineOptions o;
  o.compute = BaselineOptions::Compute::kDl;
  o.plan.strategy = pipeline::PreprocStrategy::kParallelTasks;
  o.plan.pinned_memory = true;
  o.plan.pipelined_kt = true;
  o.overlap_compute = true;
  return o;
}

namespace {

/// Neighbors per group in GNNAdvisor's neighbor-group aggregation.
constexpr std::size_t kAdvisorGroupSize = 4;

/// Per-layer forward artifacts a baseline retains for its backward pass.
struct LayerCache {
  BufferId weights = kInvalidBuffer;
  BufferId aggr = kInvalidBuffer;
  BufferId transformed = kInvalidBuffer;  // combination-first only
  BufferId pre_act = kInvalidBuffer;
  BufferId out = kInvalidBuffer;
  kernels::DeviceCsr translated_csr;  // DGL: device-built CSR of this layer
  bool has_translated = false;
  bool comb_first = false;
};

struct LayerIo {
  gpusim::Device& dev;
  const models::GnnModelConfig& model;
};

LayerCache forward_dl(LayerIo io, const kernels::DeviceCsr& csr, BufferId x,
                      BufferId w, BufferId b, bool relu, bool comb_first,
                      bool advisor) {
  LayerCache cache;
  cache.comb_first = comb_first;
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  if (!comb_first) {
    if (advisor && g == EdgeWeightMode::kNone) {
      cache.aggr =
          dl::aggregate_neighbor_groups(io.dev, csr, x, f, kAdvisorGroupSize);
    } else {
      cache.aggr = dl::forward_aggregate(io.dev, csr, x, f, g, &cache.weights);
    }
    cache.out = napa::apply_dense(io.dev, cache.aggr, w, b, relu,
                                  &cache.pre_act);
    return cache;
  }
  // Combination-first (unweighted models only).
  cache.transformed = napa::apply_matmul(io.dev, x, w);
  if (advisor) {
    cache.aggr = dl::aggregate_neighbor_groups(io.dev, csr, cache.transformed,
                                               f, kAdvisorGroupSize);
  } else {
    BufferId unused = kInvalidBuffer;
    cache.aggr = dl::forward_aggregate(io.dev, csr, cache.transformed, f,
                                       EdgeWeightMode::kNone, &unused);
  }
  cache.out = napa::apply_bias_act(io.dev, cache.aggr, b, relu,
                                   &cache.pre_act);
  return cache;
}

napa::DenseGrads backward_dl(LayerIo io, const kernels::DeviceCsr& csr,
                             BufferId x, BufferId w, const LayerCache& cache,
                             BufferId dy, bool relu, bool want_dx) {
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  napa::DenseGrads grads;
  if (!cache.comb_first) {
    napa::DenseGrads dense = napa::apply_dense_backward(
        io.dev, cache.aggr, w, cache.pre_act, dy, relu, want_dx);
    grads.dw = dense.dw;
    grads.db = dense.db;
    if (want_dx) {
      grads.dx = dl::backward_aggregate(io.dev, csr, x, cache.weights,
                                        dense.dx, f, g);
      io.dev.free(dense.dx);
    }
    return grads;
  }
  // Combination-first backward: bias/act, scatter-back in hidden space,
  // then the matmul backward. dW needs dT, so the graph traversal cannot
  // be skipped even for the first layer.
  napa::BiasActGrads bias =
      napa::apply_bias_act_backward(io.dev, cache.pre_act, dy, relu);
  grads.db = bias.db;
  BufferId dt = dl::backward_aggregate(io.dev, csr, cache.transformed,
                                       kInvalidBuffer, bias.dx, f,
                                       EdgeWeightMode::kNone);
  napa::MatmulGrads mm =
      napa::apply_matmul_backward(io.dev, x, w, dt, want_dx);
  grads.dw = mm.dw;
  grads.dx = mm.dx;
  io.dev.free(dt);
  io.dev.free(bias.dx);
  return grads;
}

LayerCache forward_graph(LayerIo io, const kernels::DeviceCoo& coo,
                         BufferId x, BufferId w, BufferId b, bool relu,
                         bool comb_first) {
  LayerCache cache;
  cache.comb_first = comb_first;
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  if (g != EdgeWeightMode::kNone)
    cache.weights = graphsim::sddmm_edgewise(io.dev, coo, x, g);
  if (comb_first) cache.transformed = napa::apply_matmul(io.dev, x, w);
  // SpMM needs per-dst source lists: pay the COO -> CSR translation.
  cache.translated_csr = graphsim::translate_to_csr(io.dev, coo);
  cache.has_translated = true;
  cache.aggr = graphsim::spmm_edgewise(
      io.dev, cache.translated_csr,
      comb_first ? cache.transformed : x, cache.weights, f, g);
  if (comb_first) {
    cache.out = napa::apply_bias_act(io.dev, cache.aggr, b, relu,
                                     &cache.pre_act);
  } else {
    cache.out = napa::apply_dense(io.dev, cache.aggr, w, b, relu,
                                  &cache.pre_act);
  }
  return cache;
}

napa::DenseGrads backward_graph(LayerIo io, const kernels::DeviceCoo& coo,
                                BufferId x, BufferId w,
                                const LayerCache& cache, BufferId dy,
                                bool relu, bool want_dx) {
  const AggMode f = io.model.f;
  const EdgeWeightMode g = io.model.g;
  napa::DenseGrads grads;
  if (!cache.comb_first) {
    napa::DenseGrads dense = napa::apply_dense_backward(
        io.dev, cache.aggr, w, cache.pre_act, dy, relu, want_dx);
    grads.dw = dense.dw;
    grads.db = dense.db;
    if (want_dx) {
      // Backward traverses dst -> src: the framework materializes the
      // reverse format first (paper: COO -> CSC translation in BWP).
      kernels::DeviceCsc csc = graphsim::translate_to_csc(io.dev, coo);
      grads.dx = graphsim::backward_edgewise(
          io.dev, coo, cache.translated_csr, x, cache.weights, dense.dx, f, g);
      kernels::free_graph(io.dev, csc);
      io.dev.free(dense.dx);
    }
    return grads;
  }
  napa::BiasActGrads bias =
      napa::apply_bias_act_backward(io.dev, cache.pre_act, dy, relu);
  grads.db = bias.db;
  kernels::DeviceCsc csc = graphsim::translate_to_csc(io.dev, coo);
  BufferId dt = graphsim::backward_edgewise(io.dev, coo, cache.translated_csr,
                                            cache.transformed, kInvalidBuffer,
                                            bias.dx, f,
                                            EdgeWeightMode::kNone);
  kernels::free_graph(io.dev, csc);
  napa::MatmulGrads mm =
      napa::apply_matmul_backward(io.dev, x, w, dt, want_dx);
  grads.dw = mm.dw;
  grads.dx = mm.dx;
  io.dev.free(dt);
  io.dev.free(bias.dx);
  return grads;
}

void release_cache(gpusim::Device& dev, LayerCache& cache) {
  if (cache.weights != kInvalidBuffer) dev.free(cache.weights);
  if (cache.aggr != kInvalidBuffer) dev.free(cache.aggr);
  if (cache.transformed != kInvalidBuffer) dev.free(cache.transformed);
  if (cache.pre_act != kInvalidBuffer) dev.free(cache.pre_act);
  if (cache.has_translated) kernels::free_graph(dev, cache.translated_csr);
}

}  // namespace

sampling::ReindexFormats BaselineFramework::reindex_formats() const {
  sampling::ReindexFormats formats;
  if (options_.compute == BaselineOptions::Compute::kGraph) {
    formats.coo = true;  // DGL ships COO and translates on device
  } else {
    formats.csr = true;
  }
  return formats;
}

void BaselineFramework::prepare_batch(const Dataset& data,
                                      const models::GnnModelConfig& model,
                                      const BatchSpec& spec,
                                      pipeline::BatchContext& ctx) {
  detail::preprocess_into(data, spec, model.num_layers, reindex_formats(),
                          options_.plan, ctx);
}

RunReport BaselineFramework::execute_prepared(
    const Dataset& data, const models::GnnModelConfig& model,
    models::ModelParams& params, const BatchSpec& spec,
    pipeline::BatchContext& ctx) {
  RunReport report;
  report.framework = name_;
  report.model = model.name;
  report.dataset = data.spec.name;
  report.input_table_bytes = ctx.preproc().embeddings.bytes();

  const bool graph_compute =
      options_.compute == BaselineOptions::Compute::kGraph;
  const bool advisor = options_.compute == BaselineOptions::Compute::kAdvisor;
  // Explicit combination-first programming exists only for unweighted
  // models in the baselines' user code.
  const bool comb_first = spec.order == OrderPolicy::kCombinationFirst &&
                          model.g == EdgeWeightMode::kNone;
  const std::vector<dfg::KernelOrder> orders(
      model.num_layers, comb_first ? dfg::KernelOrder::kCombinationFirst
                                   : dfg::KernelOrder::kAggregationFirst);

  // SGD updates are staged and committed only when the batch reaches a
  // reported outcome; a faulted attempt the service retries must leave
  // the parameters untouched (see detail::SgdStage).
  detail::SgdStage sgd(params, spec.learning_rate);
  try {
    auto session = detail::open_session(ctx.preproc(), params,
                                        reindex_formats());
    gpusim::Device& dev = session->dev;
    LayerIo io{dev, model};
    std::vector<LayerCache> caches;
    const detail::LayerPasses passes{
        [&](std::uint32_t l, BufferId x) {
          const BufferId w = session->w[l], b = session->b[l];
          const bool relu = model.relu_at(l);
          caches.push_back(
              graph_compute
                  ? forward_graph(io, session->coo[l], x, w, b, relu,
                                  comb_first)
                  : forward_dl(io, session->csr[l], x, w, b, relu,
                               comb_first, advisor));
          return caches.back().out;
        },
        [&](std::uint32_t l, BufferId x_in, BufferId dy, bool want_dx) {
          const bool relu = model.relu_at(l);
          return graph_compute
                     ? backward_graph(io, session->coo[l], x_in,
                                      session->w[l], caches[l], dy, relu,
                                      want_dx)
                     : backward_dl(io, session->csr[l], x_in, session->w[l],
                                   caches[l], dy, relu, want_dx);
        },
        [&](std::uint32_t l) { release_cache(dev, caches[l]); }};
    std::vector<detail::LayerSlice> calls;
    detail::run_layers(*session, model, spec, orders, passes, sgd, ctx,
                       report, calls);
    detail::finalize_report(report, dev, options_.overlap_compute, ctx);
  } catch (const gpusim::GpuOomError& e) {
    detail::record_oom(report, e, ctx);
  }
  sgd.commit();  // reported outcome: success, or OOM with partial backward
  return report;
}

}  // namespace gt::frameworks
