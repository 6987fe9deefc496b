// GNN model definitions (paper §VI "GNN models").
//
// A model is a NAPA mode configuration (Algorithm 10: "users can simply
// apply different GNN models by reconfiguring the modes"): the aggregation
// function f, the edge weight function g (with h implied), layer count and
// widths. GCN and NGCF are the paper's evaluated models; GraphSAGE-mean
// and a GAT-flavoured variant demonstrate the programming model's reach.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/common.hpp"

namespace gt::models {

/// Deepest model the stack runs: RunReport keeps one per-layer DKP
/// decision slot per layer. ModelParams and NapaProgram::build reject
/// deeper models.
inline constexpr std::uint32_t kMaxLayers = 8;

struct GnnModelConfig {
  std::string name;
  kernels::AggMode f = kernels::AggMode::kMean;
  kernels::EdgeWeightMode g = kernels::EdgeWeightMode::kNone;
  std::uint32_t num_layers = 2;
  std::uint32_t hidden_dim = 8;   // paper: 64, scaled with features
  std::uint32_t output_dim = 2;

  bool edge_weighted() const noexcept {
    return g != kernels::EdgeWeightMode::kNone;
  }
  /// ReLU on every layer but the last (logits).
  bool relu_at(std::uint32_t layer) const noexcept {
    return layer + 1 < num_layers;
  }
  /// Layer l MLP output width.
  std::uint32_t out_dim_at(std::uint32_t layer) const noexcept {
    return layer + 1 == num_layers ? output_dim : hidden_dim;
  }
};

/// Graph convolutional network (Kipf & Welling): mean aggregation, no edge
/// weighting.
GnnModelConfig gcn(std::uint32_t hidden, std::uint32_t out,
                   std::uint32_t layers = 2);

/// Neural graph collaborative filtering (Wang et al.): similarity-weighted
/// mean aggregation; the similarity is the src*dst embedding product
/// (scalar, SDDMM-computable) applied multiplicatively to the source.
GnnModelConfig ngcf(std::uint32_t hidden, std::uint32_t out,
                    std::uint32_t layers = 2);

/// GraphSAGE with sum aggregation (Hamilton et al. variant).
GnnModelConfig graphsage_sum(std::uint32_t hidden, std::uint32_t out,
                             std::uint32_t layers = 2);

/// GAT-flavoured model with *vector* edge weights (elementwise product):
/// exercises the DKP-incompatible path — the orchestrator must refuse to
/// hoist the combination for it.
GnnModelConfig gat_like(std::uint32_t hidden, std::uint32_t out,
                        std::uint32_t layers = 2);

}  // namespace gt::models
