// Layer executor for GraphTensor models: runs one GNN layer's NAPA kernels
// in either kernel order (aggregation-first or the Cost-DKP rewritten
// combination-first), forward and backward, caching exactly what backward
// needs. These are the GraphTensor backends' per-layer bodies: the
// training step around them (FWP -> loss -> BWP, SGD staging) is the one
// frameworks::detail::run_layers every backend shares, and the baselines
// plug their DL-/Graph-approach layer bodies into the same driver.
#pragma once

#include "dfg/cost_model.hpp"
#include "kernels/napa.hpp"

namespace gt::dfg {

struct LayerDeviceGraph {
  kernels::DeviceCsr csr;
  kernels::DeviceCsc csc;
};

struct LayerParams {
  gpusim::BufferId w = gpusim::kInvalidBuffer;  // [feat, hidden]
  gpusim::BufferId b = gpusim::kInvalidBuffer;  // [1, hidden]
};

/// Forward artifacts retained for backward.
struct LayerForward {
  gpusim::BufferId out = gpusim::kInvalidBuffer;  // [n_dst, hidden]
  KernelOrder order = KernelOrder::kAggregationFirst;
  gpusim::BufferId weights = gpusim::kInvalidBuffer;      // edge weights
  gpusim::BufferId aggr = gpusim::kInvalidBuffer;         // agg-first
  gpusim::BufferId transformed = gpusim::kInvalidBuffer;  // comb-first: x W
  gpusim::BufferId pre_act = gpusim::kInvalidBuffer;
};

class LayerExecutor {
 public:
  LayerExecutor(gpusim::Device& dev, kernels::AggMode f,
                kernels::EdgeWeightMode g)
      : dev_(dev), f_(f), g_(g) {}

  /// Run the layer in the given order. Combination-first requires
  /// dkp_compatible(g) (throws otherwise).
  LayerForward forward(const LayerDeviceGraph& graph, gpusim::BufferId x,
                       const LayerParams& params, bool relu,
                       KernelOrder order);

  /// Backward through a forward() result. `want_dx == false` (first GNN
  /// layer) lets aggregation-first skip the graph traversal entirely; dx
  /// is then kInvalidBuffer.
  kernels::napa::DenseGrads backward(const LayerDeviceGraph& graph,
                                     gpusim::BufferId x,
                                     const LayerParams& params, bool relu,
                                     const LayerForward& fwd,
                                     gpusim::BufferId dy, bool want_dx);

  /// Release the cached buffers of a forward result (not `out`).
  void release_cache(const LayerForward& fwd);

 private:
  gpusim::Device& dev_;
  kernels::AggMode f_;
  kernels::EdgeWeightMode g_;
};

}  // namespace gt::dfg
