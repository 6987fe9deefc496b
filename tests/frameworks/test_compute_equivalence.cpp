// Serial-vs-parallel equivalence across every backend: running the same
// training batches with 1, 2, or 8 compute-engine threads must produce
// bit-identical simulated reports (kernel times, flops, traffic, loss) and
// bit-identical model parameters. Only the host_*_us wall-clock fields are
// allowed to differ — they measure real time, not simulated time.
#include "frameworks/framework.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "models/config.hpp"
#include "util/parallel.hpp"

namespace gt::frameworks {
namespace {

/// Restore the environment/hardware thread default when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { set_compute_threads(0); }
};

struct TrainResult {
  std::vector<RunReport> reports;
  std::vector<Matrix> weights;  // w then b, per layer, post-training
};

/// Train `batches` consecutive batches from identically seeded parameters.
TrainResult train(const std::string& framework, const Dataset& data,
                  const models::GnnModelConfig& model, std::size_t threads,
                  std::size_t batches = 2) {
  set_compute_threads(threads);
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework(framework);
  TrainResult result;
  for (std::size_t b = 0; b < batches; ++b) {
    BatchSpec spec;
    spec.batch_size = 64;
    spec.batch_index = b;
    spec.learning_rate = 0.1f;
    result.reports.push_back(fw->run_batch(data, model, params, spec));
  }
  for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
    result.weights.push_back(params.w(l));
    result.weights.push_back(params.b(l));
  }
  return result;
}

void expect_reports_identical(const RunReport& a, const RunReport& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  // Simulated device profile: must match to the bit.
  EXPECT_EQ(a.kernel_total_us, b.kernel_total_us);
  EXPECT_EQ(a.fwp_us, b.fwp_us);
  EXPECT_EQ(a.bwp_us, b.bwp_us);
  EXPECT_EQ(a.kernel_category_us, b.kernel_category_us);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.kernel_category_flops, b.kernel_category_flops);
  EXPECT_EQ(a.global_bytes, b.global_bytes);
  EXPECT_EQ(a.cache_loaded_bytes, b.cache_loaded_bytes);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  // Host pipeline + training outcome.
  EXPECT_EQ(a.preproc_makespan_us, b.preproc_makespan_us);
  EXPECT_EQ(a.end_to_end_us, b.end_to_end_us);
  EXPECT_EQ(a.arena_peak_bytes, b.arena_peak_bytes);
  EXPECT_EQ(a.arena_allocations, b.arena_allocations);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.layer_comb_first_fwd, b.layer_comb_first_fwd);
  EXPECT_EQ(a.layer_comb_first_bwd, b.layer_comb_first_bwd);
  // host_prepare_us / host_execute_us are wall-clock and intentionally
  // excluded: they are the only fields allowed to vary with threads.
}

void expect_weights_identical(const std::vector<Matrix>& a,
                              const std::vector<Matrix>& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].data().size(), b[i].data().size());
    EXPECT_EQ(0, std::memcmp(a[i].data().data(), b[i].data().data(),
                             a[i].data().size() * sizeof(float)))
        << "parameter matrix " << i;
  }
}

TEST(ComputeEquivalence, AllBackendsBitIdenticalAcrossThreadCounts) {
  // One framework per kernel backend: Base-GT (NAPA kernels), DGL (graph
  // approach), PyG (DL approach), GNNAdvisor (DL + atomic partial
  // aggregation). Each trains two batches; reports and updated parameters
  // must match the 1-thread run exactly at 2 and 8 threads.
  ThreadGuard guard;
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  for (const char* framework : {"Base-GT", "DGL", "PyG", "GNNAdvisor"}) {
    const TrainResult serial = train(framework, data, model, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const TrainResult parallel = train(framework, data, model, threads);
      const std::string label =
          std::string(framework) + " @ " + std::to_string(threads);
      ASSERT_EQ(parallel.reports.size(), serial.reports.size());
      for (std::size_t b = 0; b < serial.reports.size(); ++b)
        expect_reports_identical(parallel.reports[b], serial.reports[b],
                                 label + " batch " + std::to_string(b));
      expect_weights_identical(parallel.weights, serial.weights, label);
    }
  }
}

TEST(ComputeEquivalence, WeightedModelBitIdenticalAcrossThreadCounts) {
  // NGCF exercises the edge-weight kernels (dot-product attention) that
  // GCN skips; cover them on the NAPA backend.
  ThreadGuard guard;
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::ngcf(8, 47);
  const TrainResult serial = train("Base-GT", data, model, 1);
  const TrainResult parallel = train("Base-GT", data, model, 8);
  for (std::size_t b = 0; b < serial.reports.size(); ++b)
    expect_reports_identical(parallel.reports[b], serial.reports[b],
                             "NGCF batch " + std::to_string(b));
  expect_weights_identical(parallel.weights, serial.weights, "NGCF");
}

TEST(ComputeEquivalence, MultiDeviceShardedRunIsThreadCountInvariant) {
  // A 4-device range-sharded GraphTensor run must stay bit-identical
  // across compute-thread counts too: the attribution derives purely from
  // the (already invariant) canonical profile, never from the host
  // threading (DESIGN.md §14). This is the configuration the TSan CI job
  // drives with 8 compute threads.
  ThreadGuard guard;
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  const auto train_d4 = [&](std::size_t threads) {
    set_compute_threads(threads);
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Prepro-GT");
    ShardOptions shard;
    shard.devices = 4;
    shard.strategy = ShardStrategy::kRange;
    EXPECT_TRUE(fw->configure_sharding(shard));
    TrainResult result;
    for (std::size_t b = 0; b < 2; ++b) {
      BatchSpec spec;
      spec.batch_size = 64;
      spec.batch_index = b;
      spec.learning_rate = 0.1f;
      result.reports.push_back(fw->run_batch(data, model, params, spec));
    }
    for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
      result.weights.push_back(params.w(l));
      result.weights.push_back(params.b(l));
    }
    return result;
  };
  const TrainResult serial = train_d4(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const TrainResult parallel = train_d4(threads);
    const std::string label = "range@4 x " + std::to_string(threads);
    ASSERT_EQ(parallel.reports.size(), serial.reports.size());
    for (std::size_t b = 0; b < serial.reports.size(); ++b) {
      expect_reports_identical(parallel.reports[b], serial.reports[b],
                               label + " batch " + std::to_string(b));
      // The multi-device view itself must match to the bit as well.
      EXPECT_EQ(parallel.reports[b].group_makespan_us,
                serial.reports[b].group_makespan_us);
      EXPECT_EQ(parallel.reports[b].comm_us, serial.reports[b].comm_us);
      EXPECT_EQ(parallel.reports[b].comm_bytes,
                serial.reports[b].comm_bytes);
      EXPECT_EQ(parallel.reports[b].device_busy_us,
                serial.reports[b].device_busy_us);
    }
    expect_weights_identical(parallel.weights, serial.weights, label);
  }
}

TEST(ComputeEquivalence, CachePoliciesNeverChangeNumerics) {
  // The embedding cache hierarchy (DESIGN.md §15) only re-prices the K/T
  // stages: losses and trained parameters must match a cache-off run to
  // the bit for every policy, with and without prefetch. (Priced fields
  // like preproc_makespan_us legitimately differ, so this test compares
  // numerics only, not full reports.)
  ThreadGuard guard;
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  const auto train_cached = [&](std::size_t budget,
                                sampling::CachePolicy policy, bool prefetch) {
    set_compute_threads(1);
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Prepro-GT");
    if (budget > 0) {
      sampling::CacheConfig cfg;
      cfg.budget_bytes = budget;
      cfg.policy = policy;
      cfg.prefetch = prefetch;
      EXPECT_TRUE(fw->configure_cache(cfg));
    }
    TrainResult result;
    for (std::size_t b = 0; b < 4; ++b) {
      BatchSpec spec;
      spec.batch_size = 64;
      spec.batch_index = b;
      spec.learning_rate = 0.1f;
      result.reports.push_back(fw->run_batch(data, model, params, spec));
    }
    for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
      result.weights.push_back(params.w(l));
      result.weights.push_back(params.b(l));
    }
    return result;
  };
  const TrainResult uncached =
      train_cached(0, sampling::CachePolicy::kStatic, false);
  const struct {
    sampling::CachePolicy policy;
    bool prefetch;
    const char* label;
  } arms[] = {
      {sampling::CachePolicy::kStatic, false, "static"},
      {sampling::CachePolicy::kLru, false, "lru"},
      {sampling::CachePolicy::kLfu, false, "lfu"},
      {sampling::CachePolicy::kTiered, false, "tiered"},
      {sampling::CachePolicy::kTiered, true, "tiered+prefetch"},
  };
  for (const auto& arm : arms) {
    const TrainResult cached =
        train_cached(std::size_t{1} << 16, arm.policy, arm.prefetch);
    ASSERT_EQ(cached.reports.size(), uncached.reports.size());
    for (std::size_t b = 0; b < uncached.reports.size(); ++b) {
      SCOPED_TRACE(std::string(arm.label) + " batch " + std::to_string(b));
      EXPECT_EQ(cached.reports[b].loss, uncached.reports[b].loss);
      EXPECT_EQ(cached.reports[b].flops, uncached.reports[b].flops);
      EXPECT_EQ(cached.reports[b].fwp_us, uncached.reports[b].fwp_us);
      EXPECT_EQ(cached.reports[b].bwp_us, uncached.reports[b].bwp_us);
      // A cached prepare skips K; the size still reads the table's shape.
      EXPECT_EQ(cached.reports[b].input_table_bytes,
                uncached.reports[b].input_table_bytes);
    }
    expect_weights_identical(cached.weights, uncached.weights, arm.label);
  }
}

TEST(ComputeEquivalence, CachedRunIsThreadCountInvariant) {
  // The cached K/T re-pricing (including the eviction stream and the
  // prefetch windows) derives from batch-index virtual time, never from
  // host threading — so the *full* cached report is bit-identical across
  // compute-thread counts, just like the uncached one.
  ThreadGuard guard;
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  const auto train_cached = [&](std::size_t threads) {
    set_compute_threads(threads);
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Prepro-GT");
    sampling::CacheConfig cfg;
    cfg.budget_bytes = std::size_t{1} << 16;
    cfg.policy = sampling::CachePolicy::kTiered;
    cfg.prefetch = true;
    EXPECT_TRUE(fw->configure_cache(cfg));
    TrainResult result;
    for (std::size_t b = 0; b < 3; ++b) {
      BatchSpec spec;
      spec.batch_size = 64;
      spec.batch_index = b;
      spec.learning_rate = 0.1f;
      result.reports.push_back(fw->run_batch(data, model, params, spec));
    }
    for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
      result.weights.push_back(params.w(l));
      result.weights.push_back(params.b(l));
    }
    return result;
  };
  const TrainResult serial = train_cached(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const TrainResult parallel = train_cached(threads);
    const std::string label = "cached x " + std::to_string(threads);
    for (std::size_t b = 0; b < serial.reports.size(); ++b)
      expect_reports_identical(parallel.reports[b], serial.reports[b],
                               label + " batch " + std::to_string(b));
    expect_weights_identical(parallel.weights, serial.weights, label);
  }
}

TEST(ComputeEquivalence, CachedMultiDeviceRunMatchesUncachedNumerics) {
  // Cache and sharding compose: a 4-device tiered-cache run still trains
  // the exact parameters of a single-device uncached run, and the split
  // per-device cache volumes conserve the batch totals.
  ThreadGuard guard;
  set_compute_threads(1);
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  const auto train_conf = [&](std::size_t devices, std::size_t budget) {
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Prepro-GT");
    if (devices > 1) {
      ShardOptions shard;
      shard.devices = devices;
      shard.strategy = ShardStrategy::kRange;
      EXPECT_TRUE(fw->configure_sharding(shard));
    }
    if (budget > 0) {
      sampling::CacheConfig cfg;
      cfg.budget_bytes = budget;
      cfg.policy = sampling::CachePolicy::kTiered;
      cfg.prefetch = true;
      EXPECT_TRUE(fw->configure_cache(cfg));
    }
    TrainResult result;
    for (std::size_t b = 0; b < 3; ++b) {
      BatchSpec spec;
      spec.batch_size = 64;
      spec.batch_index = b;
      spec.learning_rate = 0.1f;
      result.reports.push_back(fw->run_batch(data, model, params, spec));
    }
    for (std::uint32_t l = 0; l < params.num_layers(); ++l) {
      result.weights.push_back(params.w(l));
      result.weights.push_back(params.b(l));
    }
    return result;
  };
  const TrainResult baseline = train_conf(1, 0);
  for (const std::size_t devices : {std::size_t{1}, std::size_t{4}}) {
    const TrainResult cached = train_conf(devices, std::size_t{1} << 16);
    const std::string label = "tiered @ " + std::to_string(devices) + "dev";
    for (std::size_t b = 0; b < baseline.reports.size(); ++b) {
      SCOPED_TRACE(label + " batch " + std::to_string(b));
      EXPECT_EQ(cached.reports[b].loss, baseline.reports[b].loss);
    }
    expect_weights_identical(cached.weights, baseline.weights, label);
  }
}

TEST(ComputeEquivalence, HostWallClockFieldsArePopulated) {
  // The RunReport carries real prepare/execute wall time; it must be
  // non-negative and is excluded from every equivalence comparison above.
  ThreadGuard guard;
  set_compute_threads(1);
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework("Base-GT");
  BatchSpec spec;
  spec.batch_size = 64;
  RunReport report = fw->run_batch(data, model, params, spec);
  EXPECT_GT(report.host_prepare_us, 0.0);
  EXPECT_GT(report.host_execute_us, 0.0);
}

}  // namespace
}  // namespace gt::frameworks
