// Kernel microbenchmarks (google-benchmark): wall-clock cost of the
// simulator-backed kernels across problem sizes. These measure the
// *reproduction's* execution speed (how fast the simulation runs), not the
// simulated GPU latency — useful for keeping the test/bench suite fast.
#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "graph/convert.hpp"
#include "kernels/dl_approach.hpp"
#include "kernels/graph_approach.hpp"
#include "kernels/napa.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace gt;

struct Problem {
  Coo coo;
  Csr csr;
  Matrix x;
  Vid n_dst;
};

Problem make_problem(Vid n_vertices, Vid n_dst, Eid edges, std::size_t feat) {
  Xoshiro256 rng(1);
  Problem p;
  p.coo.num_vertices = n_vertices;
  for (Eid e = 0; e < edges; ++e) {
    p.coo.src.push_back(static_cast<Vid>(rng.uniform(n_vertices)));
    p.coo.dst.push_back(static_cast<Vid>(rng.uniform(n_dst)));
  }
  p.csr = coo_to_csr(p.coo);
  p.x = Matrix::uniform(n_vertices, feat, rng);
  p.n_dst = n_dst;
  return p;
}

void BM_NapaPull(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto g = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto out = kernels::napa::pull(dev, g, x, gpusim::kInvalidBuffer,
                                   kernels::AggMode::kMean,
                                   kernels::EdgeWeightMode::kNone);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NapaPull)->Args({5000, 16})->Args({5000, 128})->Args({20000, 16});

void BM_NapaNeighborApply(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto g = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto w = kernels::napa::neighbor_apply(dev, g, x,
                                           kernels::EdgeWeightMode::kDot);
    benchmark::DoNotOptimize(dev.f32(w).data());
    dev.free(w);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NapaNeighborApply)->Args({5000, 16})->Args({5000, 128});

void BM_GraphSpmm(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto coo = kernels::upload_coo(dev, p.coo, p.n_dst);
  auto csr = kernels::graphsim::translate_to_csr(dev, coo);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    auto out = kernels::graphsim::spmm_edgewise(
        dev, csr, x, gpusim::kInvalidBuffer, kernels::AggMode::kMean,
        kernels::EdgeWeightMode::kNone);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphSpmm)->Args({5000, 16})->Args({5000, 128});

void BM_DlGatherScatter(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), state.range(1));
  gpusim::Device dev;
  auto csr = kernels::upload_csr(dev, p.csr, p.n_dst);
  auto x = kernels::upload_matrix(dev, p.x, "x");
  for (auto _ : state) {
    gpusim::BufferId weights = gpusim::kInvalidBuffer;
    auto out = kernels::dl::forward_aggregate(dev, csr, x,
                                              kernels::AggMode::kMean,
                                              kernels::EdgeWeightMode::kNone,
                                              &weights);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DlGatherScatter)->Args({5000, 16})->Args({5000, 128});

void BM_FormatTranslation(benchmark::State& state) {
  Problem p = make_problem(2000, 500, state.range(0), 4);
  gpusim::Device dev;
  auto coo = kernels::upload_coo(dev, p.coo, p.n_dst);
  for (auto _ : state) {
    auto csr = kernels::graphsim::translate_to_csr(dev, coo);
    benchmark::DoNotOptimize(dev.u32(csr.col_idx).data());
    kernels::free_graph(dev, csr);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FormatTranslation)->Arg(5000)->Arg(50000);

void BM_ApplyDense(benchmark::State& state) {
  Xoshiro256 rng(2);
  Matrix x = Matrix::uniform(state.range(0), state.range(1), rng);
  Matrix w = Matrix::glorot(state.range(1), 8, rng);
  Matrix b(1, 8);
  gpusim::Device dev;
  auto xb = kernels::upload_matrix(dev, x, "x");
  auto wb = kernels::upload_matrix(dev, w, "w");
  auto bb = kernels::upload_matrix(dev, b, "b");
  for (auto _ : state) {
    auto out = kernels::napa::apply_dense(dev, xb, wb, bb, true);
    benchmark::DoNotOptimize(dev.f32(out).data());
    dev.free(out);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyDense)->Args({1000, 16})->Args({1000, 544});

// Backward of apply_matmul at the train-heavy input width: dX = dY W^T on
// the simulated device, then the dW = X^T dY reduction. Args: {rows, feat,
// hidden}.
void BM_ApplyMatmulBackward(benchmark::State& state) {
  Xoshiro256 rng(2);
  const Matrix x = Matrix::uniform(state.range(0), state.range(1), rng);
  const Matrix w = Matrix::glorot(state.range(1), state.range(2), rng);
  const Matrix dy = Matrix::uniform(state.range(0), state.range(2), rng);
  gpusim::Device dev;
  auto xb = kernels::upload_matrix(dev, x, "x");
  auto wb = kernels::upload_matrix(dev, w, "w");
  auto dyb = kernels::upload_matrix(dev, dy, "dy");
  for (auto _ : state) {
    auto grads = kernels::napa::apply_matmul_backward(dev, xb, wb, dyb, true);
    benchmark::DoNotOptimize(dev.f32(grads.dw).data());
    dev.free(grads.dx);
    dev.free(grads.dw);
    dev.clear_profile();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyMatmulBackward)->Args({1000, 544, 8});

// Per-SM cache model in isolation. Arg 0: apply_matmul's pattern on one SM
// (per block: its X row, then all 128 W rows of 64 B, then its output row),
// so W stays resident and nearly every access hits. Arg 1: Zipf-skewed rows
// of 256 B over 1M keys, so the 128 KiB cache misses and evicts constantly.
// The stream is fixed-seed and built outside the timed loop; each iteration
// replays it into a cleared cache, as one kernel launch does.
void BM_SmCacheAccess(benchmark::State& state) {
  constexpr std::uint32_t kX = 0, kW = 1, kOut = 2;
  std::vector<std::pair<gpusim::CacheKey, std::size_t>> stream;
  Xoshiro256 rng(4);
  if (state.range(0) == 0) {
    for (std::uint32_t r = 0; r < 512; ++r) {
      stream.push_back({{kX, r, 0}, 128 * sizeof(float)});
      for (std::uint32_t k = 0; k < 128; ++k)
        stream.push_back({{kW, k, 0}, 16 * sizeof(float)});
      stream.push_back({{kOut, r, 0}, 16 * sizeof(float)});
    }
  } else {
    for (std::size_t i = 0; i < 65536; ++i) {
      const auto row = static_cast<std::uint32_t>(
          std::pow(1e6, rng.uniform_real()) - 1.0);  // density ~ 1/row
      stream.push_back({{kX, row, 0}, 64 * sizeof(float)});
    }
  }
  gpusim::SmCache cache(128 * 1024);
  for (auto _ : state) {
    cache.clear();
    for (const auto& [key, bytes] : stream) cache.access(key, bytes);
    benchmark::DoNotOptimize(cache.loaded_bytes());
  }
  state.counters["hit_share"] =
      static_cast<double>(cache.hit_bytes()) /
      static_cast<double>(cache.hit_bytes() + cache.loaded_bytes());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_SmCacheAccess)->Arg(0)->Arg(1);

// The Apply kernels' weight-row stream through access_run: 82 blocks on one
// SM, each loading its 544-float X row, all 544 W rows of 32 B (hidden 8)
// as one run, then storing its output row. Items are the modelled
// accesses, so the rate compares directly with BM_SmCacheAccess/0.
void BM_SmCacheAccessRun(benchmark::State& state) {
  constexpr std::uint32_t kX = 0, kW = 1, kOut = 2, kFeat = 544;
  constexpr std::uint32_t kBlocks = 82;
  gpusim::SmCache cache(128 * 1024);
  for (auto _ : state) {
    cache.clear();
    for (std::uint32_t r = 0; r < kBlocks; ++r) {
      cache.access({kX, r, 0}, kFeat * sizeof(float));
      cache.access_run(kW, 0, kFeat, 8 * sizeof(float));
      cache.access({kOut, r, 0}, 8 * sizeof(float));
    }
    benchmark::DoNotOptimize(cache.hit_bytes());
  }
  state.counters["hit_share"] =
      static_cast<double>(cache.hit_bytes()) /
      static_cast<double>(cache.hit_bytes() + cache.loaded_bytes());
  state.SetItemsProcessed(state.iterations() * kBlocks * (kFeat + 2));
}
BENCHMARK(BM_SmCacheAccessRun);

// run_kernel's per-launch reset: clear all 82 SM caches, each holding a
// few hundred lines from the previous kernel. Only the clears are timed;
// the iteration count is fixed because the untimed refill dominates.
void BM_SmCacheClear(benchmark::State& state) {
  std::vector<gpusim::SmCache> caches(82, gpusim::SmCache(128 * 1024));
  for (auto _ : state) {
    for (auto& c : caches) c.clear();
    state.PauseTiming();
    for (auto& c : caches)
      for (std::uint32_t r = 0; r < 256; ++r) c.access({0, r, 0}, 256);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 82);
}
BENCHMARK(BM_SmCacheClear)->Iterations(2000);

// Tile-size sweep for the blocked matmul: register tile (row_tile) x cache
// block (k_block = n_block). The fastest combination becomes MatmulTiling's
// defaults; record sweep results in EXPERIMENTS.md when they move.
// Args: {row_tile, cache_block}. Shape fixed at 768x512 * 512x512 — large
// enough that blocking matters, GNN-sized (hidden dims, batch rows).
void BM_MatmulTiled(benchmark::State& state) {
  Xoshiro256 rng(3);
  const Matrix a = Matrix::uniform(768, 512, rng);
  const Matrix b = Matrix::uniform(512, 512, rng);
  Matrix c(768, 512);
  MatmulTiling tiling;
  tiling.row_tile = static_cast<std::size_t>(state.range(0));
  tiling.k_block = static_cast<std::size_t>(state.range(1));
  tiling.n_block = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    matmul_into_tiled(a, b, c, tiling);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() *
                          b.cols());
}
BENCHMARK(BM_MatmulTiled)
    ->Args({4, 64})->Args({4, 128})->Args({4, 256})
    ->Args({8, 64})->Args({8, 128})->Args({8, 256});

// Same kernel at 1 vs default compute threads (wall-clock scaling check;
// identical bits either way).
void BM_MatmulThreads(benchmark::State& state) {
  Xoshiro256 rng(3);
  const Matrix a = Matrix::uniform(768, 512, rng);
  const Matrix b = Matrix::uniform(512, 512, rng);
  Matrix c(768, 512);
  set_compute_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  set_compute_threads(0);
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() *
                          b.cols());
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
