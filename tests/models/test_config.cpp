#include "models/config.hpp"

#include "models/params.hpp"

#include <gtest/gtest.h>

namespace gt::models {
namespace {

using kernels::AggMode;
using kernels::EdgeWeightMode;

TEST(ModelConfig, GcnMatchesPaperDescription) {
  auto m = gcn(8, 47);
  EXPECT_EQ(m.name, "GCN");
  EXPECT_EQ(m.f, AggMode::kMean);             // average-based aggregation
  EXPECT_EQ(m.g, EdgeWeightMode::kNone);      // does not weight any edges
  EXPECT_FALSE(m.edge_weighted());
  EXPECT_EQ(m.num_layers, 2u);
}

TEST(ModelConfig, NgcfWeightsEdgesBySimilarity) {
  auto m = ngcf(8, 2);
  EXPECT_EQ(m.f, AggMode::kMean);
  EXPECT_EQ(m.g, EdgeWeightMode::kDot);
  EXPECT_TRUE(m.edge_weighted());
  EXPECT_TRUE(kernels::dkp_compatible(m.g));
}

TEST(ModelConfig, GatLikeIsDkpIncompatible) {
  auto m = gat_like(8, 2);
  EXPECT_FALSE(kernels::dkp_compatible(m.g));
}

TEST(ModelConfig, ReluOnAllButLastLayer) {
  auto m = gcn(8, 4, 3);
  EXPECT_TRUE(m.relu_at(0));
  EXPECT_TRUE(m.relu_at(1));
  EXPECT_FALSE(m.relu_at(2));
}

TEST(ModelConfig, LayerWidths) {
  auto m = gcn(16, 5, 3);
  EXPECT_EQ(m.out_dim_at(0), 16u);
  EXPECT_EQ(m.out_dim_at(1), 16u);
  EXPECT_EQ(m.out_dim_at(2), 5u);
}

TEST(ModelParams, ShapesFollowConfig) {
  auto cfg = gcn(8, 3, 2);
  ModelParams params(cfg, 20, 1);
  ASSERT_EQ(params.num_layers(), 2u);
  EXPECT_EQ(params.w(0).rows(), 20u);
  EXPECT_EQ(params.w(0).cols(), 8u);
  EXPECT_EQ(params.w(1).rows(), 8u);
  EXPECT_EQ(params.w(1).cols(), 3u);
  EXPECT_EQ(params.b(1).cols(), 3u);
  EXPECT_EQ(params.parameter_count(), 20 * 8 + 8 + 8 * 3 + 3);
}

TEST(ModelParams, DeterministicInit) {
  auto cfg = ngcf(8, 2);
  ModelParams a(cfg, 10, 7), b(cfg, 10, 7);
  EXPECT_EQ(a.w(0), b.w(0));
  ModelParams c(cfg, 10, 8);
  EXPECT_NE(a.w(0), c.w(0));
}

TEST(ModelParams, SgdUpdateMovesAgainstGradient) {
  auto cfg = gcn(4, 2);
  ModelParams params(cfg, 6, 3);
  const float before = params.w(0).at(0, 0);
  Matrix dw(6, 4);
  dw.at(0, 0) = 2.0f;
  Matrix db(1, 4);
  params.sgd_update(0, dw, db, 0.5f);
  EXPECT_FLOAT_EQ(params.w(0).at(0, 0), before - 1.0f);
}

TEST(ModelParams, SgdRejectsShapeMismatch) {
  auto cfg = gcn(4, 2);
  ModelParams params(cfg, 6, 3);
  EXPECT_THROW(params.sgd_update(0, Matrix(3, 3), Matrix(1, 4), 0.1f),
               std::invalid_argument);
}

TEST(ModelParams, RejectsZeroLayers) {
  GnnModelConfig cfg = gcn(4, 2);
  cfg.num_layers = 0;
  EXPECT_THROW(ModelParams(cfg, 6, 1), std::invalid_argument);
}

TEST(ModelParams, AcceptsUpToMaxLayersAndRejectsDeeper) {
  EXPECT_EQ(ModelParams(gcn(4, 2, kMaxLayers), 6, 1).num_layers(), 8u);
  EXPECT_THROW(ModelParams(gcn(4, 2, kMaxLayers + 1), 6, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace gt::models
