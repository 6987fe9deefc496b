// Golden priced output for every backend. Each configuration trains (or
// serves) a few batches from fixed parameters and reduces the batch-
// intrinsic RunReport fields plus the final parameters to one FNV-1a word.
// The constants pin the simulator's numbers across refactors of the
// execution path: any change to a kernel, an alloc/free order, the phase
// split or the SGD commit shows up here as a mismatch.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "fault/fault.hpp"
#include "fault/harness.hpp"
#include "frameworks/framework.hpp"
#include "models/config.hpp"

namespace gt::frameworks {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <class T>
  void mix(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  template <class T, std::size_t N>
  void mix(const std::array<T, N>& a) {
    for (const T& v : a) mix(v);
  }
};

/// The fault harness's reports_equal fields, the phase split, the kernel
/// category breakdown and the cache/atomic counters.
void mix_report(Fnv& f, const RunReport& r) {
  f.mix(r.oom);
  f.mix(r.failed);
  f.mix(r.loss);
  f.mix(r.kernel_launches);
  f.mix(r.kernel_total_us);
  f.mix(r.end_to_end_us);
  f.mix(r.flops);
  f.mix(r.global_bytes);
  f.mix(r.peak_memory_bytes);
  f.mix(r.preproc_makespan_us);
  f.mix(r.arena_peak_bytes);
  f.mix(r.arena_allocations);
  f.mix(r.layer_comb_first_fwd);
  f.mix(r.layer_comb_first_bwd);
  f.mix(r.fwp_us);
  f.mix(r.bwp_us);
  f.mix(r.kernel_category_us);
  f.mix(r.kernel_category_flops);
  f.mix(r.cache_loaded_bytes);
  f.mix(r.atomic_ops);
  f.mix(r.input_table_bytes);
}

constexpr std::uint64_t kBatches = 5;  // one past the DKP fit (batch 4)

/// Runs kBatches batches of one configuration on one framework instance
/// and returns the hash of every report plus the final parameters.
std::uint64_t golden_hash(const Dataset& data, const std::string& backend,
                          const models::GnnModelConfig& model,
                          OrderPolicy order, bool inference) {
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework(backend);
  Fnv f;
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    BatchSpec spec;
    spec.batch_size = 64;
    spec.batch_index = b;
    spec.order = order;
    spec.inference = inference;
    mix_report(f, fw->run_batch(data, model, params, spec));
  }
  f.mix(fault::params_digest(params));
  return f.h;
}

// Per backend, in loop order: {GCN, NGCF} x {aggregation-first,
// combination-first, dynamic} x {train, inference}.
const std::map<std::string, std::array<std::uint64_t, 12>>& golden() {
  static const std::map<std::string, std::array<std::uint64_t, 12>> g = {
      {"PyG",
       {0xdfdcec3fe0a05915ull, 0xa55ed63d1509808bull, 0xca2b99e7c8ffc5d6ull,
        0x590754572e3df158ull, 0xdfdcec3fe0a05915ull, 0xa55ed63d1509808bull,
        0xeee23e9c34afbb4full, 0x98011b2d7935cf71ull, 0xeee23e9c34afbb4full,
        0x98011b2d7935cf71ull, 0xeee23e9c34afbb4full, 0x98011b2d7935cf71ull}},
      {"PyG-MT",
       {0xa304bbdbd9614204ull, 0x7a94cffe252ccbd3ull, 0x7a2e77d8a161fc6aull,
        0x5a67dc8be8441c16ull, 0xa304bbdbd9614204ull, 0x7a94cffe252ccbd3ull,
        0xcdd50f44605be38ull, 0x5819ee1488b929fbull, 0xcdd50f44605be38ull,
        0x5819ee1488b929fbull, 0xcdd50f44605be38ull, 0x5819ee1488b929fbull}},
      {"DGL",
       {0x73a78404d981c869ull, 0xcd8c36bdc2549410ull, 0x4ff190970b56d850ull,
        0x43f8ca2d4283c930ull, 0x73a78404d981c869ull, 0xcd8c36bdc2549410ull,
        0x2e2c646859a2b75ull, 0xa0d71c795e70c8a2ull, 0x2e2c646859a2b75ull,
        0xa0d71c795e70c8a2ull, 0x2e2c646859a2b75ull, 0xa0d71c795e70c8a2ull}},
      {"GNNAdvisor",
       {0x16282e455d859079ull, 0x25fa8b250fde227bull, 0xf133558b8ac7af8aull,
        0x1c02cd4a27eb4332ull, 0x16282e455d859079ull, 0x25fa8b250fde227bull,
        0xeee23e9c34afbb4full, 0x98011b2d7935cf71ull, 0xeee23e9c34afbb4full,
        0x98011b2d7935cf71ull, 0xeee23e9c34afbb4full, 0x98011b2d7935cf71ull}},
      {"SALIENT",
       {0x9ef0a8d411df1aabull, 0x214386be6d251c5cull, 0xbbf2b6241684a421ull,
        0xf9fc602a51580b7aull, 0x9ef0a8d411df1aabull, 0x214386be6d251c5cull,
        0xb2c3abd450654640ull, 0xdf9e4e7335e04458ull, 0xb2c3abd450654640ull,
        0xdf9e4e7335e04458ull, 0xb2c3abd450654640ull, 0xdf9e4e7335e04458ull}},
      {"Base-GT",
       {0x54fa64c1f4abcdd5ull, 0x4410c97ac2b888eaull, 0xf6861db7ee2876f0ull,
        0xfa79e7a954b9b7c3ull, 0x54fa64c1f4abcdd5ull, 0x4410c97ac2b888eaull,
        0x5c205f4ce9098b0cull, 0x89cddfee719ba3b4ull, 0x3b3487bf077b926full,
        0x7c0b31b5b6e051daull, 0x5c205f4ce9098b0cull, 0x89cddfee719ba3b4ull}},
      {"Dynamic-GT",
       {0x54fa64c1f4abcdd5ull, 0x4410c97ac2b888eaull, 0xf6861db7ee2876f0ull,
        0xfa79e7a954b9b7c3ull, 0x8e67100574aa3f4full, 0x4410c97ac2b888eaull,
        0x5c205f4ce9098b0cull, 0x89cddfee719ba3b4ull, 0x3b3487bf077b926full,
        0x7c0b31b5b6e051daull, 0x3520061bd3dce98full, 0x89cddfee719ba3b4ull}},
      {"Prepro-GT",
       {0x86634c45656aa881ull, 0x38ab2ce7c9eea082ull, 0xede6d40d6680fd78ull,
        0x42e2ebcf2ec588ffull, 0x29c4744f53b6b73full, 0x38ab2ce7c9eea082ull,
        0x4c43d25d16678a50ull, 0x729d4cd6a67de614ull, 0xc0767fdeee16bd5full,
        0xd5173dd9a08dab7aull, 0xd2b9eb2e5569713ull, 0x729d4cd6a67de614ull}},
  };
  return g;
}

// Per backend: MidBackwardOomIsPinned's hash.
const std::map<std::string, std::uint64_t>& golden_oom() {
  static const std::map<std::string, std::uint64_t> g = {
      {"PyG", 0x826c9a42013b12b0ull},
      {"PyG-MT", 0x6bd4cc489405a1fdull},
      {"DGL", 0x25ee87127a913662ull},
      {"GNNAdvisor", 0x15fbb114e984106bull},
      {"SALIENT", 0x4162a6360be41ec6ull},
      {"Base-GT", 0x9c5c72aa4969231full},
      {"Dynamic-GT", 0x9c5c72aa4969231full},
      {"Prepro-GT", 0x9e3ac3c6a4e7db09ull},
  };
  return g;
}

class GoldenReports : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenReports, PricedOutputIsPinned) {
  const std::string& backend = GetParam();
  const Dataset data = generate("products", 5);
  const std::array<std::uint64_t, 12>& want = golden().at(backend);
  std::size_t i = 0;
  for (const auto& model : {models::gcn(8, 47), models::ngcf(8, 47)}) {
    for (OrderPolicy order :
         {OrderPolicy::kAggregationFirst, OrderPolicy::kCombinationFirst,
          OrderPolicy::kDynamic}) {
      for (bool inference : {false, true}) {
        const std::uint64_t got =
            golden_hash(data, backend, model, order, inference);
        EXPECT_EQ(got, want[i])
            << backend << " " << model.name << " order "
            << static_cast<int>(order) << (inference ? " inference" : " train")
            << ": 0x" << std::hex << got << "ull";
        ++i;
      }
    }
  }
}

/// One GCN training batch whose `k`-th device allocation fails as an OOM.
RunReport run_with_oom_at(const Dataset& data, const std::string& backend,
                          std::uint32_t k, models::ModelParams& params) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "gpusim.alloc@batch=0:layer=" + std::to_string(k) + ":kind=oom");
  fault::PlanScope scope(&plan, 0);
  BatchSpec spec;
  spec.batch_size = 64;
  return make_framework(backend)->run_batch(data, models::gcn(8, 47), params,
                                            spec);
}

// The OOM path mid-backward: the batch's last device allocation fails, so
// every layer but the first has staged its update and the partial SGD
// commit, the loss and the forward split all land in the pinned hash.
TEST_P(GoldenReports, MidBackwardOomIsPinned) {
  const std::string& backend = GetParam();
  const Dataset data = generate("products", 5);
  auto ooms = [&](std::uint32_t k) {
    models::ModelParams params(models::gcn(8, 47), data.spec.feature_dim, 7);
    return run_with_oom_at(data, backend, k, params).oom;
  };
  std::uint32_t lo = 0, hi = 1;  // ooms(lo), !ooms(hi) once bracketed
  while (ooms(hi)) lo = hi, hi *= 2;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    (ooms(mid) ? lo : hi) = mid;
  }
  models::ModelParams params(models::gcn(8, 47), data.spec.feature_dim, 7);
  const std::uint64_t initial = fault::params_digest(params);
  const RunReport r = run_with_oom_at(data, backend, lo, params);
  ASSERT_TRUE(r.oom);
  EXPECT_NE(fault::params_digest(params), initial);  // partial commit
  Fnv f;
  f.mix(lo);
  mix_report(f, r);
  f.mix(fault::params_digest(params));
  EXPECT_EQ(f.h, golden_oom().at(backend))
      << backend << ": 0x" << std::hex << f.h << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GoldenReports, ::testing::ValuesIn(framework_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// The OOM report path: PyG's densified NGCF tensors do not fit the device
// on livejournal (the setup of Properties.OomLeavesReportUsable).
TEST(GoldenOomReport, DensifiedNgcfOnLivejournal) {
  const Dataset data = generate("livejournal", 5);
  const auto model = models::ngcf(8, 2);
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework("PyG");
  const RunReport r = fw->run_batch(data, model, params, BatchSpec{});
  ASSERT_TRUE(r.oom);
  Fnv f;
  mix_report(f, r);
  f.mix(fault::params_digest(params));
  EXPECT_EQ(f.h, 0x47d10179d4b7cafull) << "0x" << std::hex << f.h << "ull";
}

}  // namespace
}  // namespace gt::frameworks
