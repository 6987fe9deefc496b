#include "dfg/executor.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace gt::dfg {

using kernels::EdgeWeightMode;
namespace napa = kernels::napa;

LayerForward LayerExecutor::forward(const LayerDeviceGraph& graph,
                                    gpusim::BufferId x,
                                    const LayerParams& params, bool relu,
                                    KernelOrder order) {
  GT_OBS_SCOPE_N(span, "dfg.layer_forward", "dfg");
  span.arg("order", to_string(order));
  LayerForward fwd;
  fwd.order = order;
  if (order == KernelOrder::kCombinationFirst && !kernels::dkp_compatible(g_))
    throw std::invalid_argument(
        "combination-first order is invalid for elementwise edge weights");

  if (g_ != EdgeWeightMode::kNone)
    fwd.weights = napa::neighbor_apply(dev_, graph.csr, x, g_);

  if (order == KernelOrder::kAggregationFirst) {
    fwd.aggr = napa::pull(dev_, graph.csr, x, fwd.weights, f_, g_);
    fwd.out =
        napa::apply_dense(dev_, fwd.aggr, params.w, params.b, relu,
                          &fwd.pre_act);
  } else {
    fwd.transformed = napa::apply_matmul(dev_, x, params.w);
    gpusim::BufferId aggr_h =
        napa::pull(dev_, graph.csr, fwd.transformed, fwd.weights, f_, g_);
    fwd.out = napa::apply_bias_act(dev_, aggr_h, params.b, relu,
                                   &fwd.pre_act);
    dev_.free(aggr_h);
  }
  return fwd;
}

napa::DenseGrads LayerExecutor::backward(const LayerDeviceGraph& graph,
                                         gpusim::BufferId x,
                                         const LayerParams& params, bool relu,
                                         const LayerForward& fwd,
                                         gpusim::BufferId dy, bool want_dx) {
  GT_OBS_SCOPE_N(span, "dfg.layer_backward", "dfg");
  span.arg("order", to_string(fwd.order));
  napa::DenseGrads grads;
  if (fwd.order == KernelOrder::kAggregationFirst) {
    // dY -> (relu, bias, matmul) -> dA -> (pull, neighbor-apply) -> dX.
    const bool need_da = want_dx;
    napa::DenseGrads dense = napa::apply_dense_backward(
        dev_, fwd.aggr, params.w, fwd.pre_act, dy, relu, need_da);
    grads.dw = dense.dw;
    grads.db = dense.db;
    if (want_dx) {
      grads.dx = napa::pull_backward(dev_, graph.csr, graph.csc, x,
                                     fwd.weights, dense.dx, f_, g_);
      if (g_ != EdgeWeightMode::kNone)
        napa::neighbor_apply_backward(dev_, graph.csr, x, dense.dx, grads.dx,
                                      f_, g_);
      dev_.free(dense.dx);
    }
    return grads;
  }

  // Combination-first: dY -> (relu, bias) -> dA (hidden space)
  //   -> pull-backward-h -> dT -> matmul backward -> dX/dW, plus the
  //   g' terms computed from (x, T = xW).
  napa::BiasActGrads bias =
      napa::apply_bias_act_backward(dev_, fwd.pre_act, dy, relu);
  grads.db = bias.db;
  gpusim::BufferId dt = napa::pull_backward_h(dev_, graph.csr, graph.csc,
                                              fwd.weights, bias.dx, f_);
  napa::MatmulGrads mm =
      napa::apply_matmul_backward(dev_, x, params.w, dt, want_dx);
  grads.dw = mm.dw;
  if (want_dx) {
    grads.dx = mm.dx;
    if (g_ == EdgeWeightMode::kDot)
      napa::edge_weight_backward_cf(dev_, graph.csr, graph.csc, x,
                                    fwd.transformed, bias.dx, grads.dx, f_);
  }
  dev_.free(dt);
  dev_.free(bias.dx);
  return grads;
}

void LayerExecutor::release_cache(const LayerForward& fwd) {
  if (fwd.weights != gpusim::kInvalidBuffer) dev_.free(fwd.weights);
  if (fwd.aggr != gpusim::kInvalidBuffer) dev_.free(fwd.aggr);
  if (fwd.transformed != gpusim::kInvalidBuffer) dev_.free(fwd.transformed);
  if (fwd.pre_act != gpusim::kInvalidBuffer) dev_.free(fwd.pre_act);
}

}  // namespace gt::dfg
