// Cross-cutting property tests over the whole stack: determinism,
// deeper models, and schedule invariants.
#include <gtest/gtest.h>

#include "frameworks/framework.hpp"
#include "models/config.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/plan.hpp"

namespace gt::frameworks {
namespace {

TEST(Properties, RunBatchIsFullyDeterministic) {
  Dataset data = generate("products", 5);
  auto model = models::ngcf(8, 47);
  auto run = [&] {
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Prepro-GT");
    BatchSpec spec;
    spec.batch_size = 64;
    return fw->run_batch(data, model, params, spec);
  };
  RunReport a = run();
  RunReport b = run();
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.kernel_total_us, b.kernel_total_us);
  EXPECT_EQ(a.preproc_makespan_us, b.preproc_makespan_us);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.global_bytes, b.global_bytes);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
}

TEST(Properties, ThreeLayerModelsAgreeAcrossFrameworks) {
  Dataset data = generate("citation2", 5);
  auto model = models::gcn(8, 2, /*layers=*/3);
  std::vector<float> losses;
  for (const auto& name :
       {std::string("PyG"), std::string("DGL"), std::string("Base-GT"),
        std::string("Prepro-GT")}) {
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework(name);
    BatchSpec spec;
    spec.batch_size = 32;
    RunReport r = fw->run_batch(data, model, params, spec);
    ASSERT_FALSE(r.oom) << name;
    losses.push_back(r.loss);
  }
  for (std::size_t i = 1; i < losses.size(); ++i)
    EXPECT_NEAR(losses[i], losses[0], 2e-3f);
}

TEST(Properties, AlternativeModelsTrain) {
  // GraphSAGE-sum and the GAT-like vector-weighted model run through the
  // full GraphTensor stack and reduce their loss.
  Dataset data = generate("products", 5);
  for (const auto& model :
       {models::graphsage_sum(8, 47), models::gat_like(8, 47)}) {
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Dynamic-GT");
    BatchSpec spec;
    spec.batch_size = 64;
    spec.learning_rate = 0.05f;
    spec.order = OrderPolicy::kDynamic;
    float first = 0, last = 0;
    for (int i = 0; i < 6; ++i) {
      RunReport r = fw->run_batch(data, model, params, spec);
      ASSERT_FALSE(r.oom) << model.name;
      if (i == 0) first = r.loss;
      last = r.loss;
    }
    EXPECT_LT(last, first) << model.name;
  }
}

TEST(Properties, DifferentBatchesSampleDifferentSubgraphs) {
  Dataset data = generate("products", 5);
  sampling::ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, 42, formats);
  auto a = exec.run(exec.sampler().pick_batch(64, 0));
  auto b = exec.run(exec.sampler().pick_batch(64, 1));
  EXPECT_NE(a.batch.vid_order, b.batch.vid_order);
}

TEST(Properties, TransferNeverStartsBeforeSamplingCompletes) {
  // The allocation barrier (paper Fig 13): no T task may start before the
  // last hop's hash updates finish (buffer sizes unknown until then).
  Dataset data = generate("wiki-talk", 5);
  sampling::ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, 42, formats);
  auto pre = exec.run(exec.sampler().pick_batch(300, 0));
  pipeline::BatchWorkload w =
      pipeline::workload_from(pre.batch, data.spec.feature_dim);
  pipeline::PlanOptions opt;
  opt.strategy = pipeline::PreprocStrategy::kServiceWide;
  opt.pinned_memory = opt.pipelined_kt = true;
  auto sched = plan_preprocessing(w, opt);

  double last_sampling_finish = 0.0;
  for (const auto& task : sched.sim.tasks)
    if (task.name.rfind("S.", 0) == 0)
      last_sampling_finish = std::max(last_sampling_finish, task.finish);
  for (const auto& task : sched.sim.tasks) {
    if (task.name.rfind("T.", 0) == 0 && task.resource != kNoResource) {
      EXPECT_GE(task.start + 1e-9, last_sampling_finish) << task.name;
    }
  }
}

TEST(Properties, MakespanRespectsWorkConservation) {
  // Makespan >= total CPU work / cores and >= total PCIe work: the list
  // scheduler cannot beat the resource bounds.
  Dataset data = generate("gowalla", 5);
  sampling::ReindexFormats formats{.csr = true};
  pipeline::PreprocExecutor exec(data.csr, data.embeddings, data.spec.fanout,
                                 2, 42, formats);
  auto pre = exec.run(exec.sampler().pick_batch(300, 0));
  pipeline::BatchWorkload w =
      pipeline::workload_from(pre.batch, data.spec.feature_dim);
  for (auto strategy : {pipeline::PreprocStrategy::kParallelTasks,
                        pipeline::PreprocStrategy::kServiceWide}) {
    pipeline::PlanOptions opt;
    opt.strategy = strategy;
    opt.pinned_memory = opt.pipelined_kt = true;
    auto sched = plan_preprocessing(w, opt);
    double cpu_work = 0.0, pcie_work = 0.0;
    for (int t = 0; t < 4; ++t) {
      if (t == static_cast<int>(pipeline::TaskType::kTransfer)) {
        pcie_work += sched.type_busy_us[t];
      } else {
        cpu_work += sched.type_busy_us[t];
      }
    }
    EXPECT_GE(sched.makespan_us + 1e-6, cpu_work / opt.cost.num_cores);
    EXPECT_GE(sched.makespan_us + 1e-6, pcie_work);
  }
}

TEST(Properties, HeavierBatchesCostMore) {
  Dataset data = generate("products", 5);
  auto model = models::gcn(8, 47);
  auto cost = [&](std::size_t batch_size) {
    models::ModelParams params(model, data.spec.feature_dim, 7);
    auto fw = make_framework("Base-GT");
    BatchSpec spec;
    spec.batch_size = batch_size;
    RunReport r = fw->run_batch(data, model, params, spec);
    return r.end_to_end_us;
  };
  EXPECT_LT(cost(32), cost(300));
}

TEST(Properties, OomLeavesReportUsable) {
  Dataset data = generate("livejournal", 5);
  auto model = models::ngcf(8, 2);
  models::ModelParams params(model, data.spec.feature_dim, 7);
  auto fw = make_framework("PyG");
  RunReport r = fw->run_batch(data, model, params, BatchSpec{});
  ASSERT_TRUE(r.oom);
  EXPECT_FALSE(r.oom_what.empty());
  EXPECT_GT(r.preproc_makespan_us, 0.0);  // preprocessing completed
  EXPECT_EQ(r.kernel_total_us, 0.0);      // compute never ran
  // The framework object survives and can run a feasible batch next.
  Dataset small = generate("wiki-talk", 5);
  models::ModelParams params2(model, small.spec.feature_dim, 7);
  RunReport ok = fw->run_batch(small, model, params2, BatchSpec{});
  EXPECT_FALSE(ok.oom);
}

}  // namespace
}  // namespace gt::frameworks
