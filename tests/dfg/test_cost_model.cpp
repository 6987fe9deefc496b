#include "dfg/cost_model.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace gt::dfg {
namespace {

LayerDims dims(Vid src, Vid dst, Eid e, std::size_t f, std::size_t h) {
  return LayerDims{src, dst, e, f, h};
}

constexpr PlacementCase kAggFwd{KernelOrder::kAggregationFirst, false, false};
constexpr PlacementCase kCombFwd{KernelOrder::kCombinationFirst, false,
                                 false};

TEST(CostModel, UnfittedDecisionFollowsOperationCounts) {
  DkpCostModel model;
  EXPECT_FALSE(model.fitted());
  // Wide features, tiny hidden, many edges: combination-first shrinks the
  // aggregation's memory traffic dramatically.
  EXPECT_EQ(model.decide(dims(1000, 300, 5000, 544, 8)),
            KernelOrder::kCombinationFirst);
  // Feature dim == hidden dim: hoisting the matmul only adds work.
  EXPECT_EQ(model.decide(dims(5000, 300, 20000, 8, 8)),
            KernelOrder::kAggregationFirst);
}

TEST(CostModel, FitRecoversSyntheticLatencies) {
  DkpCostModel model;
  Xoshiro256 rng(3);
  const double c0 = 7.0, c_mem = 5e-4, c_mac = 6e-6;
  for (int i = 0; i < 200; ++i) {
    LayerDims d = dims(100 + static_cast<Vid>(rng.uniform(5000)),
                       50 + static_cast<Vid>(rng.uniform(500)),
                       200 + rng.uniform(20000), 4 + rng.uniform(600),
                       2 + rng.uniform(64));
    for (auto order :
         {KernelOrder::kAggregationFirst, KernelOrder::kCombinationFirst}) {
      for (bool bwd : {false, true}) {
        PlacementCase c{order, bwd, false};
        auto x = DkpCostModel::features(d, c);
        model.record(d, c, c0 + c_mem * x[1] + c_mac * x[2]);
      }
    }
  }
  model.fit();
  EXPECT_TRUE(model.fitted());
  EXPECT_LT(model.mean_relative_error(), 0.01);
  EXPECT_NEAR(model.coefficients()[1], c_mem, 1e-6);
  EXPECT_NEAR(model.coefficients()[2], c_mac, 1e-7);
  EXPECT_NEAR(model.coefficients()[0], c0, 1e-2);
}

TEST(CostModel, NegativeFitCoefficientsFallBackToDefaults) {
  // Degenerate sample set (one placement only, constant latency) must not
  // produce negative unit costs.
  DkpCostModel model;
  for (int i = 0; i < 5; ++i)
    model.record(dims(100, 40, 300, 32, 8), kAggFwd, 10.0);
  model.fit();
  EXPECT_GT(model.coefficients()[1], 0.0);
  EXPECT_GT(model.coefficients()[2], 0.0);
}

TEST(CostModel, FirstLayerBackwardCheaperUnderAggregationFirst) {
  // The paper's §V-A point: aggregation-first BWP of the first layer skips
  // the input-gradient traversal, so its predicted cost drops.
  DkpCostModel model;
  LayerDims d = dims(3000, 500, 6000, 64, 32);
  const double full = model.predict(
      d, PlacementCase{KernelOrder::kAggregationFirst, true, false});
  const double first = model.predict(
      d, PlacementCase{KernelOrder::kAggregationFirst, true, true});
  EXPECT_LT(first, full);
  // Combination-first cannot skip the traversal (dW needs it); it only
  // saves the dense dX kernel.
  const double comb_full = model.predict(
      d, PlacementCase{KernelOrder::kCombinationFirst, true, false});
  const double comb_first = model.predict(
      d, PlacementCase{KernelOrder::kCombinationFirst, true, true});
  EXPECT_LT(comb_first, comb_full);
  EXPECT_GT((comb_full - comb_first) / comb_full,
            0.0);  // saves something, but...
  EXPECT_GT((full - first) / full,
            (comb_full - comb_first) / comb_full);  // ...agg saves more
}

TEST(CostModel, DecideTrainingPrefersCombFirstForWideFeatures) {
  DkpCostModel model;
  // wiki-talk-like layer 0 (F=544, H=8, edge+dst volume above 2x src):
  // hoisting the combination shrinks the traversal traffic enough to win.
  EXPECT_EQ(model.decide_training(dims(1383, 590, 1826, 544, 8), true),
            KernelOrder::kCombinationFirst);
  // F == H with few dsts: hoisting only adds matmul rows.
  EXPECT_EQ(model.decide_training(dims(1500, 300, 1500, 8, 8), false),
            KernelOrder::kAggregationFirst);
}

TEST(CostModel, FeatureVectorsDifferByOrder) {
  LayerDims d = dims(100, 40, 300, 32, 8);
  EXPECT_NE(DkpCostModel::features(d, kAggFwd),
            DkpCostModel::features(d, kCombFwd));
}

TEST(CostModel, SampleCountTracksRecords) {
  DkpCostModel model;
  EXPECT_EQ(model.sample_count(), 0u);
  model.record(dims(10, 5, 20, 4, 2), kAggFwd, 1.0);
  model.record(dims(10, 5, 20, 4, 2), kCombFwd, 2.0);
  EXPECT_EQ(model.sample_count(), 2u);
}

TEST(CostModel, ResidualsEmptyBeforeFitAndNeverNan) {
  DkpCostModel model;
  model.record(dims(100, 40, 300, 32, 8), kAggFwd, 10.0);
  EXPECT_TRUE(model.residuals().empty());  // pre-fit samples train, not probe
  const ResidualSummary s = model.residual_summary();
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.p50_pct, 0.0);
  EXPECT_EQ(s.p95_pct, 0.0);
  EXPECT_EQ(s.mean_pct, 0.0);
}

TEST(CostModel, PostFitRecordsBecomeResidualProbes) {
  DkpCostModel model;
  Xoshiro256 rng(5);
  const double c0 = 7.0, c_mem = 5e-4, c_mac = 6e-6;
  auto latency = [&](const LayerDims& d, const PlacementCase& c) {
    auto x = DkpCostModel::features(d, c);
    return c0 + c_mem * x[1] + c_mac * x[2];
  };
  for (int i = 0; i < 100; ++i) {
    LayerDims d = dims(100 + static_cast<Vid>(rng.uniform(5000)),
                       50 + static_cast<Vid>(rng.uniform(500)),
                       200 + rng.uniform(20000), 4 + rng.uniform(600),
                       2 + rng.uniform(64));
    model.record(d, kAggFwd, latency(d, kAggFwd));
  }
  model.fit();
  ASSERT_TRUE(model.fitted());
  EXPECT_TRUE(model.residuals().empty());

  // Post-fit: each record is a probe; the synthetic generator matches the
  // fitted model, so residuals sit near zero...
  LayerDims probe = dims(2000, 400, 8000, 128, 16);
  model.record(probe, kAggFwd, latency(probe, kAggFwd));
  ASSERT_EQ(model.residuals().size(), 1u);
  EXPECT_NEAR(model.residuals()[0].rel_error_pct(), 0.0, 1.0);

  // ...and a sample measured 2x the prediction lands near 50% rel error,
  // dragging p95 (nearest-rank: the worst of two samples) with it.
  model.record(probe, kAggFwd, 2.0 * latency(probe, kAggFwd));
  ASSERT_EQ(model.residuals().size(), 2u);
  const ResidualSummary s = model.residual_summary();
  EXPECT_EQ(s.samples, 2u);
  EXPECT_NEAR(model.residuals()[1].rel_error_pct(), 50.0, 1.5);
  EXPECT_NEAR(s.p95_pct, model.residuals()[1].rel_error_pct(), 1e-9);
  EXPECT_LE(s.p50_pct, s.p95_pct);
  EXPECT_GT(s.mean_pct, 0.0);
}

TEST(CostModel, ToString) {
  EXPECT_STREQ(to_string(KernelOrder::kAggregationFirst),
               "aggregation-first");
  EXPECT_STREQ(to_string(KernelOrder::kCombinationFirst),
               "combination-first");
}

}  // namespace
}  // namespace gt::dfg
