#include "dfg/executor.hpp"

#include <gtest/gtest.h>

#include "graph/convert.hpp"
#include "kernels/reference.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace gt::dfg {
namespace {

using kernels::AggMode;
using kernels::EdgeWeightMode;

struct Problem {
  Csr csr;
  Matrix x, w, b;
  Vid n_dst;
};

Problem make_problem(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo coo;
  coo.num_vertices = 18;
  for (int e = 0; e < 50; ++e) {
    coo.src.push_back(static_cast<Vid>(rng.uniform(18)));
    coo.dst.push_back(static_cast<Vid>(rng.uniform(7)));
  }
  Problem p;
  p.csr = coo_to_csr(coo);
  p.n_dst = 7;
  p.x = Matrix::uniform(18, 6, rng, -0.5f, 0.5f);
  p.w = Matrix::glorot(6, 4, rng);
  p.b = Matrix::uniform(1, 4, rng, -0.1f, 0.1f);
  return p;
}

struct DeviceSetup {
  gpusim::Device dev;
  LayerDeviceGraph graph;
  LayerParams params;
  gpusim::BufferId x;
};

DeviceSetup setup(const Problem& p) {
  DeviceSetup s;
  s.graph.csr = kernels::upload_csr(s.dev, p.csr, p.n_dst);
  s.graph.csc = kernels::upload_csc(s.dev, p.csr, p.n_dst);
  s.params.w = kernels::upload_matrix(s.dev, p.w, "w");
  s.params.b = kernels::upload_matrix(s.dev, p.b, "b");
  s.x = kernels::upload_matrix(s.dev, p.x, "x");
  return s;
}

class ExecutorOrders
    : public ::testing::TestWithParam<
          std::tuple<AggMode, EdgeWeightMode, KernelOrder>> {};

TEST_P(ExecutorOrders, ForwardMatchesReference) {
  const auto [f, g, order] = GetParam();
  Problem p = make_problem(41);
  DeviceSetup s = setup(p);
  LayerExecutor exec(s.dev, f, g);
  LayerForward fwd = exec.forward(s.graph, s.x, s.params, /*relu=*/true,
                                  order);
  Matrix want = kernels::ref::forward_layer(p.csr, p.x, p.w, p.b, p.n_dst,
                                   f, g, true);
  EXPECT_TRUE(allclose(kernels::download_matrix(s.dev, fwd.out), want, 2e-3f))
      << to_string(order) << " f=" << kernels::to_string(f)
      << " g=" << kernels::to_string(g);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, ExecutorOrders,
    ::testing::Combine(
        ::testing::Values(AggMode::kSum, AggMode::kMean),
        ::testing::Values(EdgeWeightMode::kNone, EdgeWeightMode::kDot),
        ::testing::Values(KernelOrder::kAggregationFirst,
                          KernelOrder::kCombinationFirst)));

class ExecutorBackwardOrders
    : public ::testing::TestWithParam<
          std::tuple<AggMode, EdgeWeightMode, KernelOrder>> {};

TEST_P(ExecutorBackwardOrders, BackwardMatchesReference) {
  const auto [f, g, order] = GetParam();
  Problem p = make_problem(42);
  DeviceSetup s = setup(p);
  LayerExecutor exec(s.dev, f, g);
  LayerForward fwd = exec.forward(s.graph, s.x, s.params, true, order);

  // Reference gradients (computed from the aggregation-first formulation;
  // the two orders are algebraically identical for scalar weights).
  kernels::ref::LayerCache cache;
  Matrix y = kernels::ref::forward_layer(p.csr, p.x, p.w, p.b, p.n_dst, f, g,
                                         true, &cache);
  Matrix dy = scale(y, 2.0f);
  kernels::ref::LayerGrads want = kernels::ref::backward_layer(
      p.csr, p.x, p.w, p.n_dst, f, g, true, dy, cache);

  auto dyb = kernels::upload_matrix(s.dev, dy, "dy");
  kernels::napa::DenseGrads grads =
      exec.backward(s.graph, s.x, s.params, true, fwd, dyb, /*want_dx=*/true);
  EXPECT_TRUE(
      allclose(kernels::download_matrix(s.dev, grads.dw), want.dw, 2e-3f))
      << to_string(order);
  EXPECT_TRUE(
      allclose(kernels::download_matrix(s.dev, grads.db), want.db, 2e-3f));
  EXPECT_TRUE(
      allclose(kernels::download_matrix(s.dev, grads.dx), want.dx, 2e-3f))
      << to_string(order) << " diff="
      << max_abs_diff(kernels::download_matrix(s.dev, grads.dx), want.dx);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, ExecutorBackwardOrders,
    ::testing::Combine(
        ::testing::Values(AggMode::kSum, AggMode::kMean),
        ::testing::Values(EdgeWeightMode::kNone, EdgeWeightMode::kDot),
        ::testing::Values(KernelOrder::kAggregationFirst,
                          KernelOrder::kCombinationFirst)));

TEST(Executor, CombinationFirstRejectedForVectorWeights) {
  Problem p = make_problem(43);
  DeviceSetup s = setup(p);
  LayerExecutor exec(s.dev, AggMode::kMean, EdgeWeightMode::kElemProduct);
  EXPECT_THROW(exec.forward(s.graph, s.x, s.params, true,
                            KernelOrder::kCombinationFirst),
               std::invalid_argument);
}

TEST(Executor, FirstLayerBackwardSkipsGraphTraversal) {
  Problem p = make_problem(44);
  DeviceSetup s = setup(p);
  LayerExecutor exec(s.dev, AggMode::kMean, EdgeWeightMode::kNone);
  LayerForward fwd = exec.forward(s.graph, s.x, s.params, true,
                                  KernelOrder::kAggregationFirst);
  auto dyb = s.dev.alloc_f32(p.n_dst, p.w.cols(), "dy");

  s.dev.clear_profile();
  kernels::napa::DenseGrads grads =
      exec.backward(s.graph, s.x, s.params, true, fwd, dyb, /*want_dx=*/false);
  EXPECT_EQ(grads.dx, gpusim::kInvalidBuffer);
  // No aggregation-backward kernel ran.
  using gpusim::KernelCategory;
  EXPECT_EQ(accumulate(s.dev.profile(), KernelCategory::kAggregation)
                .latency_us,
            0.0);
  EXPECT_NE(grads.dw, gpusim::kInvalidBuffer);
  EXPECT_NE(grads.db, gpusim::kInvalidBuffer);
}

TEST(Executor, ReleaseCacheFreesBuffers) {
  Problem p = make_problem(45);
  DeviceSetup s = setup(p);
  LayerExecutor exec(s.dev, AggMode::kMean, EdgeWeightMode::kDot);
  const std::size_t before = s.dev.memory_stats().current_bytes;
  LayerForward fwd = exec.forward(s.graph, s.x, s.params, true,
                                  KernelOrder::kAggregationFirst);
  exec.release_cache(fwd);
  s.dev.free(fwd.out);
  EXPECT_EQ(s.dev.memory_stats().current_bytes, before);
}

TEST(Executor, CombinationFirstReducesFlopsForWideFeatures) {
  // Fig 18's mechanism at unit scale: with F >> H, hoisting the matmul
  // shrinks every later tensor, cutting total FLOPs.
  Xoshiro256 rng(46);
  Coo coo;
  coo.num_vertices = 60;
  for (int e = 0; e < 3000; ++e) {
    coo.src.push_back(static_cast<Vid>(rng.uniform(60)));
    coo.dst.push_back(static_cast<Vid>(rng.uniform(20)));
  }
  Csr csr = coo_to_csr(coo);
  Matrix x = Matrix::uniform(60, 64, rng);
  Matrix w = Matrix::glorot(64, 4, rng);
  Matrix b(1, 4);

  auto run = [&](KernelOrder order) {
    gpusim::Device dev;
    LayerDeviceGraph graph{kernels::upload_csr(dev, csr, 20),
                           kernels::upload_csc(dev, csr, 20)};
    LayerParams params{kernels::upload_matrix(dev, w, "w"),
                       kernels::upload_matrix(dev, b, "b")};
    auto xb = kernels::upload_matrix(dev, x, "x");
    LayerExecutor exec(dev, AggMode::kMean, EdgeWeightMode::kNone);
    dev.clear_profile();
    exec.forward(graph, xb, params, true, order);
    return accumulate(dev.profile()).flops;
  };
  EXPECT_LT(run(KernelOrder::kCombinationFirst),
            run(KernelOrder::kAggregationFirst));
}

}  // namespace
}  // namespace gt::dfg
