#include <gtest/gtest.h>

#include "datasets/catalog.hpp"
#include "fault/fault.hpp"
#include "fault/harness.hpp"
#include "frameworks/framework.hpp"
#include "models/config.hpp"
#include "models/params.hpp"
#include "tensor/matrix.hpp"

namespace gt::frameworks {
namespace {

BatchSpec spec_for(std::uint64_t index) {
  BatchSpec spec;
  spec.batch_size = 64;
  spec.batch_index = index;
  spec.seed = 5;
  spec.learning_rate = 0.05f;
  return spec;
}

// The tentpole regression test: after a warm-up epoch, replaying the same
// batches through the same BatchContext must be allocation-free — zero
// arena block growths and zero new heap Matrix allocations. Every
// activation, gradient, download, hash slot, and preprocessing buffer
// comes back from capacity retained by the context.
TEST(SteadyState, SecondEpochPerformsNoArenaGrowthOrHeapMatrixAllocs) {
  Dataset data = generate("products", 7);
  const models::GnnModelConfig model = models::gcn(8, 47);
  models::ModelParams params(model, data.spec.feature_dim, 5);
  auto fw = make_framework("Base-GT");
  pipeline::BatchContext ctx;

  constexpr std::uint64_t kBatches = 3;
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    RunReport r = fw->run_batch(data, model, params, spec_for(b), ctx);
    ASSERT_FALSE(r.oom) << r.oom_what;
  }

  const std::uint64_t growths = ctx.arena().stats().growths;
  const std::size_t capacity = ctx.arena().stats().capacity_bytes;
  const std::uint64_t heap = Matrix::heap_allocations();
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    RunReport r = fw->run_batch(data, model, params, spec_for(b), ctx);
    ASSERT_FALSE(r.oom) << r.oom_what;
    EXPECT_EQ(r.arena_growths, 0u) << "batch " << b;
    EXPECT_GT(r.arena_peak_bytes, 0u);
    EXPECT_GT(r.arena_allocations, 0u);
  }
  EXPECT_EQ(ctx.arena().stats().growths, growths);
  EXPECT_EQ(ctx.arena().stats().capacity_bytes, capacity);
  EXPECT_EQ(Matrix::heap_allocations(), heap);
}

// Arena telemetry must be batch-intrinsic: rerunning the same batch spec
// in a *fresh* context reports the same peak and allocation count even
// though the fresh context pays warm-up growths.
TEST(SteadyState, ArenaReportFieldsAreBatchIntrinsic) {
  Dataset data = generate("products", 7);
  const models::GnnModelConfig model = models::gcn(8, 47);
  auto fw = make_framework("Dynamic-GT");

  models::ModelParams params_a(model, data.spec.feature_dim, 5);
  pipeline::BatchContext warm;
  for (std::uint64_t b = 0; b < 2; ++b)
    fw->run_batch(data, model, params_a, spec_for(b), warm);
  RunReport warm_report =
      fw->run_batch(data, model, params_a, spec_for(2), warm);

  auto fw2 = make_framework("Dynamic-GT");
  models::ModelParams params_b(model, data.spec.feature_dim, 5);
  pipeline::BatchContext cold;
  for (std::uint64_t b = 0; b < 2; ++b)
    fw2->run_batch(data, model, params_b, spec_for(b), cold);
  // Replace the context mid-stream: batch 2 now runs completely cold.
  pipeline::BatchContext fresh;
  RunReport cold_report =
      fw2->run_batch(data, model, params_b, spec_for(2), fresh);

  EXPECT_EQ(warm_report.arena_peak_bytes, cold_report.arena_peak_bytes);
  EXPECT_EQ(warm_report.arena_allocations, cold_report.arena_allocations);
  EXPECT_EQ(warm_report.loss, cold_report.loss);
  // The warm context grew nothing for batch 2; the fresh one had to.
  EXPECT_EQ(warm_report.arena_growths, 0u);
  EXPECT_GT(cold_report.arena_growths, 0u);
}

// DESIGN.md §9 rule 4: execute lends the context's layer-0 table to the
// device session and the session hands it back when it closes — after a
// clean batch, after an OOM, and after a transient fault that unwinds out
// of execute. The lend is the batch's first device allocation
// (gpusim.alloc ordinal 0), so both faults below hit it.
class InputTableLending : public ::testing::TestWithParam<std::string> {};

TEST_P(InputTableLending, ContextGetsTheSameTableBack) {
  const Dataset data = generate("products", 5);
  const models::GnnModelConfig model = models::gcn(8, 47);
  const BatchSpec spec = spec_for(0);
  auto fresh_params = [&] {
    return models::ModelParams(model, data.spec.feature_dim, 7);
  };

  struct Table {
    const float* data;
    std::size_t rows, cols;
    std::vector<float> values;
  };
  auto snapshot = [](const pipeline::BatchContext& ctx) {
    const Matrix& m = ctx.preproc().embeddings;
    return Table{m.data().data(), m.rows(), m.cols(),
                 {m.data().begin(), m.data().end()}};
  };
  auto expect_same = [](const Table& want, const Table& got,
                        const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.cols, want.cols);
    EXPECT_EQ(got.values, want.values);
  };

  // Clean batch: the reference table and the fault-free params digest.
  models::ModelParams clean = fresh_params();
  std::uint64_t clean_digest = 0;
  std::size_t table_bytes = 0;
  {
    auto fw = make_framework(GetParam());
    pipeline::BatchContext ctx;
    fw->prepare(data, model, spec, ctx);
    const Table before = snapshot(ctx);
    ASSERT_GT(before.rows, 0u);
    const RunReport r = fw->execute(data, model, clean, spec, ctx);
    ASSERT_FALSE(r.oom) << r.oom_what;
    expect_same(before, snapshot(ctx), "after a clean execute");
    table_bytes = before.values.size() * sizeof(float);
    EXPECT_EQ(r.input_table_bytes, table_bytes);
    clean_digest = fault::params_digest(clean);
  }

  // OOM at the lend: reported, nothing trained, table back.
  {
    auto fw = make_framework(GetParam());
    pipeline::BatchContext ctx;
    models::ModelParams params = fresh_params();
    const std::uint64_t initial = fault::params_digest(params);
    fw->prepare(data, model, spec, ctx);
    const Table before = snapshot(ctx);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("gpusim.alloc@batch=0:layer=0:kind=oom");
    fault::PlanScope scope(&plan, 0);
    const RunReport r = fw->execute(data, model, params, spec, ctx);
    ASSERT_TRUE(r.oom);
    EXPECT_NE(r.oom_what.find("requested " + std::to_string(table_bytes) +
                              "B"),
              std::string::npos)
        << r.oom_what;
    expect_same(before, snapshot(ctx), "after an OOM at the lend");
    EXPECT_EQ(fault::params_digest(params), initial);
  }

  // Transient fault at the lend: execute throws, the table comes back, and
  // re-executing from the same context trains exactly like the clean run.
  {
    auto fw = make_framework(GetParam());
    pipeline::BatchContext ctx;
    models::ModelParams params = fresh_params();
    fw->prepare(data, model, spec, ctx);
    const Table before = snapshot(ctx);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("gpusim.alloc@batch=0:layer=0");
    {
      fault::PlanScope scope(&plan, 0);
      EXPECT_THROW(fw->execute(data, model, params, spec, ctx),
                   fault::InjectedFault);
    }
    EXPECT_EQ(plan.injected(), 1u);
    expect_same(before, snapshot(ctx), "after a transient fault");
    const RunReport r = fw->execute(data, model, params, spec, ctx);
    ASSERT_FALSE(r.oom) << r.oom_what;
    expect_same(before, snapshot(ctx), "after the retried execute");
    EXPECT_EQ(fault::params_digest(params), clean_digest);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, InputTableLending, ::testing::ValuesIn(framework_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace gt::frameworks
