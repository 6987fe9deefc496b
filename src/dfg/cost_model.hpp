// The DKP cost model (paper Table I).
//
// For each GNN layer the orchestrator chooses between aggregation-first and
// combination-first kernel placement, forward and backward. Either
// placement's latency is modelled as
//
//     T = c0 + c_mem * (embedding elements moved through DRAM)
//            + c_flop * (multiply-accumulate pairs)
//
// where the element/MAC counts follow from the dimensionality algebra of
// Fig 11a: aggregation reduces tensor *height* (n_Src -> n_Dst), the
// combination reduces *width* (n_Feature -> n_Hidden), so whichever runs
// first shrinks everything downstream. The backward direction swaps the
// traversal (dst -> src, W -> W^T), and the model's first layer skips the
// input-gradient traversal entirely under aggregation-first (§V-A) — its
// feature counts reflect exactly the kernels that execute.
//
// The three coefficients are fitted by least squares against kernel
// latencies measured during the first training batches (the paper fits at
// the start of the first epoch and reuses the coefficients for the rest of
// training, reporting 12.5% prediction error). Before any fit, the
// device's nominal bandwidth/throughput constants serve as defaults.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "graph/types.hpp"

namespace gt::dfg {

enum class KernelOrder { kAggregationFirst, kCombinationFirst };

const char* to_string(KernelOrder order);

struct LayerDims {
  Vid n_src = 0;       // input table rows
  Vid n_dst = 0;       // destination rows
  Eid n_edges = 0;
  std::size_t n_feat = 0;    // input feature dim
  std::size_t n_hidden = 0;  // output dim of the layer's MLP
};

/// Which part of the training step a latency sample covers.
struct PlacementCase {
  KernelOrder order = KernelOrder::kAggregationFirst;
  bool backward = false;
  /// Backward of the model's first layer: aggregation-first skips the
  /// input-gradient traversal; combination-first skips only the dense
  /// dX kernel (the graph traversal still feeds dW).
  bool first_layer = false;
  /// Edge-weighted models (NGCF) additionally run NeighborApply in the
  /// original feature space under *either* placement (weights do not
  /// commute into the hidden space), plus the g' backward passes.
  bool edge_weighted = false;
};

/// One post-fit predicted-vs-measured probe (record() computes these once
/// the model is fitted — every later sample doubles as a residual).
struct ResidualSample {
  double predicted_us = 0.0;
  double measured_us = 0.0;
  /// 100 * |predicted - measured| / measured.
  double rel_error_pct() const noexcept;
};

/// Distribution summary of the residual stream — the "model health" view
/// the ledger joins against and the live costmodel.* gauges publish.
struct ResidualSummary {
  std::size_t samples = 0;
  double p50_pct = 0.0;
  double p95_pct = 0.0;
  double mean_pct = 0.0;
};

class DkpCostModel {
 public:
  static constexpr std::size_t kFeatures = 3;

  /// {1, memory elements, MAC pairs} for the kernels this case runs.
  /// Fitted by *relative* least squares (each sample scaled by its own
  /// latency), so microsecond-scale hidden-layer samples and
  /// millisecond-scale feature-layer samples contribute equally — the fit
  /// minimizes exactly the relative error the paper reports.
  static std::array<double, kFeatures> features(const LayerDims& dims,
                                                const PlacementCase& c);

  /// Record a measured latency (microseconds) for fitting.
  void record(const LayerDims& dims, const PlacementCase& c,
              double latency_us);

  std::size_t sample_count() const noexcept { return xs_.size(); }

  /// Relative least-squares fit of (c0, c_mem, c_mac) over everything
  /// recorded.
  void fit();

  bool fitted() const noexcept { return fitted_; }
  const std::array<double, kFeatures>& coefficients() const noexcept {
    return coeff_;
  }

  /// Predicted latency (us); analytic device-constant defaults before fit().
  double predict(const LayerDims& dims, const PlacementCase& c) const;

  /// Placement decision for one direction.
  KernelOrder decide(const LayerDims& dims, bool backward = false,
                     bool first_layer = false,
                     bool edge_weighted = false) const;

  /// One decision per layer covering FWP + BWP (the executor's backward
  /// reuses the forward's cached tensors, so the pair shares a placement).
  KernelOrder decide_training(const LayerDims& dims, bool first_layer,
                              bool edge_weighted = false) const;

  /// Mean absolute relative prediction error over the recorded samples.
  double mean_relative_error() const;

  /// Prediction-query API: every sample recorded *after* fit() is kept as
  /// a (predicted, measured) pair, in record order. Empty before the fit.
  const std::vector<ResidualSample>& residuals() const noexcept {
    return residuals_;
  }

  /// Nearest-rank p50/p95 + mean of the residual relative errors; all
  /// zeros while residuals() is empty (never NaN).
  ResidualSummary residual_summary() const;

 private:
  std::vector<std::array<double, kFeatures>> xs_;
  std::vector<double> ys_;
  std::vector<ResidualSample> residuals_;  // post-fit probes only
  std::array<double, kFeatures> coeff_{};
  bool fitted_ = false;
};

}  // namespace gt::dfg
