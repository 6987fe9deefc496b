#include "kernels/napa.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string_view>

#include "kernel_test_util.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace gt::kernels {
namespace {

using testing::LayerProblem;
using testing::make_problem;

class NapaModes
    : public ::testing::TestWithParam<std::tuple<AggMode, EdgeWeightMode>> {};

TEST_P(NapaModes, ForwardMatchesReference) {
  const auto [f, g] = GetParam();
  LayerProblem p = make_problem(11);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");

  gpusim::BufferId weights = gpusim::kInvalidBuffer;
  Matrix ref_w;
  if (g != EdgeWeightMode::kNone) {
    weights = napa::neighbor_apply(dev, dg, x, g);
    ref_w = ref::edge_weights(p.csr, p.x, p.n_dst, g);
    EXPECT_TRUE(allclose(download_matrix(dev, weights), ref_w, 1e-4f));
  }
  auto aggr = napa::pull(dev, dg, x, weights, f, g);
  Matrix want = ref::aggregate(p.csr, p.x, ref_w, p.n_dst, f, g);
  EXPECT_TRUE(allclose(download_matrix(dev, aggr), want, 1e-4f))
      << "f=" << to_string(f) << " g=" << to_string(g);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NapaModes,
    ::testing::Combine(::testing::Values(AggMode::kSum, AggMode::kMean,
                                         AggMode::kMax),
                       ::testing::Values(EdgeWeightMode::kNone,
                                         EdgeWeightMode::kDot,
                                         EdgeWeightMode::kElemProduct)));

TEST(Napa, ApplyDenseMatchesReference) {
  LayerProblem p = make_problem(12);
  gpusim::Device dev;
  auto x = upload_matrix(dev, p.x, "x");
  auto w = upload_matrix(dev, p.w, "w");
  auto b = upload_matrix(dev, p.b, "b");
  for (bool relu_act : {false, true}) {
    gpusim::BufferId pre = gpusim::kInvalidBuffer;
    auto y = napa::apply_dense(dev, x, w, b, relu_act, &pre);
    Matrix want_pre;
    Matrix want = ref::combine(p.x, p.w, p.b, relu_act, &want_pre);
    EXPECT_TRUE(allclose(download_matrix(dev, y), want, 1e-4f));
    EXPECT_TRUE(allclose(download_matrix(dev, pre), want_pre, 1e-4f));
  }
}

class NapaBackward
    : public ::testing::TestWithParam<std::tuple<AggMode, EdgeWeightMode>> {};

TEST_P(NapaBackward, FullLayerBackwardMatchesReference) {
  const auto [f, g] = GetParam();
  LayerProblem p = make_problem(13);
  gpusim::Device dev;
  DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
  DeviceCsc dcsc = upload_csc(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  auto w = upload_matrix(dev, p.w, "w");
  auto b = upload_matrix(dev, p.b, "b");

  // Device forward (with cache).
  gpusim::BufferId weights = gpusim::kInvalidBuffer;
  if (g != EdgeWeightMode::kNone)
    weights = napa::neighbor_apply(dev, dcsr, x, g);
  auto aggr = napa::pull(dev, dcsr, x, weights, f, g);
  gpusim::BufferId pre = gpusim::kInvalidBuffer;
  napa::apply_dense(dev, aggr, w, b, /*relu=*/true, &pre);

  // Reference forward + backward.
  ref::LayerCache cache;
  Matrix y =
      ref::forward_layer(p.csr, p.x, p.w, p.b, p.n_dst, f, g, true, &cache);
  Matrix dy = scale(y, 2.0f);
  ref::LayerGrads want =
      ref::backward_layer(p.csr, p.x, p.w, p.n_dst, f, g, true, dy, cache);

  // Device backward.
  auto dyb = upload_matrix(dev, dy, "dy");
  auto dense = napa::apply_dense_backward(dev, aggr, w, pre, dyb, true);
  EXPECT_TRUE(allclose(download_matrix(dev, dense.dw), want.dw, 1e-3f));
  EXPECT_TRUE(allclose(download_matrix(dev, dense.db), want.db, 1e-3f));
  auto dx = napa::pull_backward(dev, dcsr, dcsc, x, weights, dense.dx, f, g);
  if (g != EdgeWeightMode::kNone)
    napa::neighbor_apply_backward(dev, dcsr, x, dense.dx, dx, f, g);
  EXPECT_TRUE(allclose(download_matrix(dev, dx), want.dx, 1e-3f))
      << "f=" << to_string(f) << " g=" << to_string(g)
      << " diff=" << max_abs_diff(download_matrix(dev, dx), want.dx);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NapaBackward,
    ::testing::Combine(::testing::Values(AggMode::kSum, AggMode::kMean),
                       ::testing::Values(EdgeWeightMode::kNone,
                                         EdgeWeightMode::kDot,
                                         EdgeWeightMode::kElemProduct)));

TEST(Napa, NeighborApplyRejectsNone) {
  LayerProblem p = make_problem(14);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  EXPECT_THROW(napa::neighbor_apply(dev, dg, x, EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, PullWeightArgumentConsistency) {
  LayerProblem p = make_problem(15);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  EXPECT_THROW(
      napa::pull(dev, dg, x, gpusim::kInvalidBuffer, AggMode::kMean,
                 EdgeWeightMode::kDot),
      std::invalid_argument);
  EXPECT_THROW(napa::pull(dev, dg, x, x, AggMode::kMean,
                          EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, MaxBackwardUnsupported) {
  LayerProblem p = make_problem(16);
  gpusim::Device dev;
  DeviceCsr dcsr = upload_csr(dev, p.csr, p.n_dst);
  DeviceCsc dcsc = upload_csc(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  auto da = dev.alloc_f32(p.n_dst, p.x.cols(), "da");
  EXPECT_THROW(napa::pull_backward(dev, dcsr, dcsc, x, gpusim::kInvalidBuffer,
                                   da, AggMode::kMax, EdgeWeightMode::kNone),
               std::invalid_argument);
}

TEST(Napa, KernelsAreCategorizedForProfiling) {
  LayerProblem p = make_problem(17);
  gpusim::Device dev;
  DeviceCsr dg = upload_csr(dev, p.csr, p.n_dst);
  auto x = upload_matrix(dev, p.x, "x");
  dev.clear_profile();
  auto weights = napa::neighbor_apply(dev, dg, x, EdgeWeightMode::kDot);
  napa::pull(dev, dg, x, weights, AggMode::kMean, EdgeWeightMode::kDot);
  using gpusim::KernelCategory;
  EXPECT_GT(accumulate(dev.profile(), KernelCategory::kEdgeWeight).latency_us,
            0.0);
  EXPECT_GT(
      accumulate(dev.profile(), KernelCategory::kAggregation).latency_us,
      0.0);
  // NAPA never translates formats or densifies.
  EXPECT_EQ(
      accumulate(dev.profile(), KernelCategory::kFormatTranslate).latency_us,
      0.0);
  EXPECT_EQ(
      accumulate(dev.profile(), KernelCategory::kSparse2Dense).latency_us,
      0.0);
}

// ---- Apply kernels, bit for bit ---------------------------------------------
// The Apply kernels model their weight-row stream with one load_rows() call
// and compute through register tiles. The oracles below are the plain
// loops they replaced: one load() per weight row with `out[c] += x[k] *
// W[k][c]`, and the r-outer dW reduction. Every output must match them
// byte for byte, and every Apply kernel's KernelStats exactly.

using gpusim::BlockCtx;
using gpusim::BufferId;
using gpusim::Device;
using gpusim::KernelStats;

namespace oracle {

// Apply.MatMul as apply_matmul (b invalid) or apply_dense ran it.
void forward(Device& dev, BufferId x, BufferId w, BufferId b, bool relu,
             BufferId pre, BufferId out) {
  const std::size_t feat = dev.cols(x), hidden = dev.cols(w);
  auto xv = dev.f32(x);
  auto wv = dev.f32(w);
  auto ov = dev.f32(out);
  const std::size_t hb = hidden * sizeof(float);
  const bool dense = b != gpusim::kInvalidBuffer;
  std::span<float> bv, pv;
  if (dense) bv = dev.f32(b);
  if (pre != gpusim::kInvalidBuffer) pv = dev.f32(pre);
  dev.run_kernel("Apply.MatMul", gpusim::KernelCategory::kCombination,
                 dev.rows(x), [&](BlockCtx& ctx) {
    const auto r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(x, r, feat * sizeof(float));
    const float* xr = &xv[r * feat];
    float* orow = &ov[r * hidden];
    for (std::size_t k = 0; k < feat; ++k) {
      ctx.load(w, static_cast<std::uint32_t>(k), hb);
      const float xk = xr[k];
      const float* wrow = &wv[k * hidden];
      for (std::size_t c = 0; c < hidden; ++c) orow[c] += xk * wrow[c];
    }
    if (!dense) {
      ctx.flops(2ull * feat * hidden);
      ctx.store(out, r, hb);
      return;
    }
    ctx.load(b, 0, hb);
    for (std::size_t c = 0; c < hidden; ++c) {
      orow[c] += bv[c];
      if (!pv.empty()) pv[r * hidden + c] = orow[c];
      if (relu && orow[c] < 0.0f) orow[c] = 0.0f;
    }
    ctx.flops(2ull * feat * hidden + 2ull * hidden);
    if (pre != gpusim::kInvalidBuffer) ctx.store(pre, r, hb);
    ctx.store(out, r, hb);
  }, gpusim::BlockSafety::kParallel);
}

// Apply.MatMulGradX: dx = g W^T.
void grad_x(Device& dev, BufferId g, BufferId w, BufferId dx) {
  const std::size_t feat = dev.rows(w), hidden = dev.cols(w);
  auto gv = dev.f32(g);
  auto wv = dev.f32(w);
  auto dxv = dev.f32(dx);
  const std::size_t hb = hidden * sizeof(float);
  dev.run_kernel("Apply.MatMulGradX", gpusim::KernelCategory::kCombination,
                 dev.rows(g), [&](BlockCtx& ctx) {
    const auto r = static_cast<std::uint32_t>(ctx.block_id());
    ctx.load(g, r, hb);
    for (std::size_t k = 0; k < feat; ++k) {
      ctx.load(w, static_cast<std::uint32_t>(k), hb);
      float acc = 0.0f;
      for (std::size_t c = 0; c < hidden; ++c)
        acc += gv[r * hidden + c] * wv[k * hidden + c];
      dxv[r * feat + k] = acc;
    }
    ctx.flops(2ull * feat * hidden);
    ctx.store(dx, r, feat * sizeof(float));
  }, gpusim::BlockSafety::kParallel);
}

// dW = X^T g, r outermost.
Matrix grad_w(const Matrix& x, const Matrix& g) {
  Matrix dw(x.cols(), g.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t k = 0; k < x.cols(); ++k)
      for (std::size_t c = 0; c < g.cols(); ++c)
        dw.at(k, c) += x.at(r, k) * g.at(r, c);
  return dw;
}

Matrix grad_b(const Matrix& g) {
  Matrix db(1, g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c) db.at(0, c) += g.at(r, c);
  return db;
}

}  // namespace oracle

::testing::AssertionResult same_bits(const Matrix& got, const Matrix& want) {
  if (got.rows() == want.rows() && got.cols() == want.cols() &&
      std::memcmp(got.data().data(), want.data().data(),
                  got.data().size() * sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got.rows() << "x" << got.cols() << " vs " << want.rows() << "x"
         << want.cols() << ", max |diff| " << max_abs_diff(got, want);
}

const KernelStats& last_launch(const Device& dev, std::string_view name) {
  for (auto it = dev.profile().rbegin(); it != dev.profile().rend(); ++it)
    if (it->name == name) return *it;
  throw std::logic_error("kernel not in profile");
}

::testing::AssertionResult same_stats(const Device& got, const Device& want,
                                      std::string_view name) {
  const KernelStats& a = last_launch(got, name);
  const KernelStats& b = last_launch(want, name);
  if (a.flops == b.flops && a.global_bytes == b.global_bytes &&
      a.cache_loaded_bytes == b.cache_loaded_bytes &&
      a.cache_hit_bytes == b.cache_hit_bytes &&
      a.latency_us == b.latency_us && a.blocks == b.blocks)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << name << ": flops " << a.flops << " vs " << b.flops << ", global "
         << a.global_bytes << " vs " << b.global_bytes << ", loaded "
         << a.cache_loaded_bytes << " vs " << b.cache_loaded_bytes << ", hit "
         << a.cache_hit_bytes << " vs " << b.cache_hit_bytes << ", us "
         << a.latency_us << " vs " << b.latency_us;
}

void expect_apply_kernels_match_oracles(std::size_t rows, std::size_t feat,
                                        std::size_t hidden) {
  Xoshiro256 rng(rows * 1000003 + feat * 1009 + hidden);
  const Matrix xm = Matrix::uniform(rows, feat, rng, -1.0f, 1.0f);
  const Matrix wm = Matrix::uniform(feat, hidden, rng, -1.0f, 1.0f);
  const Matrix bm = Matrix::uniform(1, hidden, rng, -1.0f, 1.0f);
  const Matrix dym = Matrix::uniform(rows, hidden, rng, -1.0f, 1.0f);
  Device got, want;
  for (Device* dev : {&got, &want}) {
    upload_matrix(*dev, xm, "x");
    upload_matrix(*dev, wm, "w");
    upload_matrix(*dev, bm, "b");
    upload_matrix(*dev, dym, "dy");
  }
  const BufferId x = 0, w = 1, b = 2, dy = 3;
  const BufferId none = gpusim::kInvalidBuffer;

  const BufferId out = napa::apply_matmul(got, x, w);
  const BufferId want_out = want.alloc_f32(rows, hidden, "want.out");
  oracle::forward(want, x, w, none, false, none, want_out);
  EXPECT_TRUE(same_bits(download_matrix(got, out),
                        download_matrix(want, want_out)));
  EXPECT_TRUE(same_stats(got, want, "Apply.MatMul"));

  const napa::MatmulGrads mg = napa::apply_matmul_backward(got, x, w, dy, true);
  const BufferId want_dx = want.alloc_f32(rows, feat, "want.dx");
  oracle::grad_x(want, dy, w, want_dx);
  EXPECT_TRUE(same_bits(download_matrix(got, mg.dx),
                        download_matrix(want, want_dx)));
  EXPECT_TRUE(same_stats(got, want, "Apply.MatMulGradX"));
  EXPECT_TRUE(same_bits(download_matrix(got, mg.dw), oracle::grad_w(xm, dym)));

  for (const bool relu : {false, true}) {
    for (const bool keep_pre : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "relu " << relu << " pre_act "
                                        << keep_pre);
      BufferId pre = none;
      const BufferId y =
          napa::apply_dense(got, x, w, b, relu, keep_pre ? &pre : nullptr);
      const BufferId want_y = want.alloc_f32(rows, hidden, "want.y");
      const BufferId want_pre =
          keep_pre ? want.alloc_f32(rows, hidden, "want.pre") : none;
      oracle::forward(want, x, w, b, relu, want_pre, want_y);
      EXPECT_TRUE(same_bits(download_matrix(got, y),
                            download_matrix(want, want_y)));
      EXPECT_TRUE(same_stats(got, want, "Apply.MatMul"));
      if (!keep_pre) continue;
      const Matrix pm = download_matrix(want, want_pre);
      EXPECT_TRUE(same_bits(download_matrix(got, pre), pm));

      // dZ = relu'(pre) (.) dY, then the oracles on dZ.
      Matrix dzm = dym;
      if (relu)
        for (std::size_t i = 0; i < dzm.data().size(); ++i)
          if (!(pm.data()[i] > 0.0f)) dzm.data()[i] = 0.0f;
      const napa::DenseGrads dg =
          napa::apply_dense_backward(got, x, w, pre, dy, relu, true);
      const BufferId want_dz = upload_matrix(want, dzm, "want.dz");
      const BufferId want_dgx = want.alloc_f32(rows, feat, "want.dgx");
      oracle::grad_x(want, want_dz, w, want_dgx);
      EXPECT_TRUE(same_bits(download_matrix(got, dg.dx),
                            download_matrix(want, want_dgx)));
      EXPECT_TRUE(same_stats(got, want, "Apply.MatMulGradX"));
      EXPECT_TRUE(same_bits(download_matrix(got, dg.dw),
                            oracle::grad_w(xm, dzm)));
      EXPECT_TRUE(same_bits(download_matrix(got, dg.db), oracle::grad_b(dzm)));
    }
  }
}

// Shapes straddle every tile edge: 8-column output tiles, 4-row dW tiles,
// 64-row reduction tiles; 3 compute threads split the dW rows unevenly.
TEST(NapaApplyBits, MatchTheUntiledLoopsBitForBit) {
  struct ThreadGuard {
    ~ThreadGuard() { set_compute_threads(0); }
  } guard;
  for (const std::size_t threads : {1, 3}) {
    set_compute_threads(threads);
    for (const std::size_t feat : {1, 3, 4, 5, 13, 544})
      for (const std::size_t hidden : {1, 2, 7, 8, 9, 17})
        for (const std::size_t rows : {1, 63, 64, 65, 200}) {
          SCOPED_TRACE(::testing::Message()
                       << "threads " << threads << " rows " << rows
                       << " feat " << feat << " hidden " << hidden);
          expect_apply_kernels_match_oracles(rows, feat, hidden);
          if (::testing::Test::HasFailure()) return;
        }
  }
}

}  // namespace
}  // namespace gt::kernels
