#include "pipeline/plan.hpp"

#include <gtest/gtest.h>

namespace gt::pipeline {
namespace {

BatchWorkload light_workload() {
  // Shaped like a products-class batch: 300 dsts, fanout 3, 2 layers,
  // narrow features.
  BatchWorkload w;
  w.num_layers = 2;
  w.batch_size = 300;
  w.hops.push_back(HopWork{300, 850, 850, 700});
  w.hops.push_back(HopWork{700, 1900, 1900, 1500});
  w.layer_reindex_edges = {2750, 850};
  w.total_vertices = 2500;
  w.feature_dim = 13;
  return w;
}

BatchWorkload heavy_workload() {
  BatchWorkload w = light_workload();
  w.feature_dim = 544;  // wiki-talk class
  return w;
}

PlanOptions options(PreprocStrategy s, bool pinned = false,
                    bool pipelined = false) {
  PlanOptions opt;
  opt.strategy = s;
  opt.pinned_memory = pinned;
  opt.pipelined_kt = pipelined;
  return opt;
}

TEST(Plan, SerialMakespanIsSumOfWork) {
  auto sched = plan_preprocessing(light_workload(),
                                  options(PreprocStrategy::kSerial));
  double busy = 0.0;
  for (double b : sched.type_busy_us) busy += b;
  EXPECT_NEAR(sched.makespan_us, busy, 1e-6);
}

TEST(Plan, ParallelTasksBeatSerial) {
  const auto serial = plan_preprocessing(light_workload(),
                                         options(PreprocStrategy::kSerial));
  const auto par = plan_preprocessing(
      light_workload(), options(PreprocStrategy::kParallelTasks));
  EXPECT_LT(par.makespan_us, serial.makespan_us);
}

TEST(Plan, ServiceWideBeatsParallelTasks) {
  for (const auto& w : {light_workload(), heavy_workload()}) {
    const auto par =
        plan_preprocessing(w, options(PreprocStrategy::kParallelTasks));
    const auto sw = plan_preprocessing(
        w, options(PreprocStrategy::kServiceWide, true, true));
    EXPECT_LT(sw.makespan_us, par.makespan_us)
        << "feature_dim=" << w.feature_dim;
  }
}

TEST(Plan, ContentionRelaxingHelps) {
  // Fig 14: the relaxed scheduler (A/H split, serialized H, ordered R)
  // beats the same pipeline racing on the hash table.
  for (const auto& w : {light_workload(), heavy_workload()}) {
    const auto norelax = plan_preprocessing(
        w, options(PreprocStrategy::kServiceWideNoRelax, true, true));
    const auto relaxed = plan_preprocessing(
        w, options(PreprocStrategy::kServiceWide, true, true));
    EXPECT_LT(relaxed.makespan_us, norelax.makespan_us);
  }
}

TEST(Plan, PinnedMemoryShortensTransfers) {
  const auto pageable = plan_preprocessing(
      heavy_workload(), options(PreprocStrategy::kParallelTasks, false));
  const auto pinned = plan_preprocessing(
      heavy_workload(), options(PreprocStrategy::kParallelTasks, true));
  EXPECT_LT(pinned.type_busy_us[static_cast<int>(TaskType::kTransfer)],
            pageable.type_busy_us[static_cast<int>(TaskType::kTransfer)]);
}

TEST(Plan, HeavyFeaturesShiftTimeToLookupAndTransfer) {
  // Fig 12a: sampling dominates light graphs; K+T dominate heavy ones.
  const auto light = plan_preprocessing(light_workload(),
                                        options(PreprocStrategy::kSerial));
  const auto heavy = plan_preprocessing(heavy_workload(),
                                        options(PreprocStrategy::kSerial));
  const auto share = [](const PreprocSchedule& s, TaskType t) {
    double total = 0.0;
    for (double b : s.type_busy_us) total += b;
    return s.type_busy_us[static_cast<int>(t)] / total;
  };
  EXPECT_GT(share(light, TaskType::kSample), 0.5);
  EXPECT_GT(share(heavy, TaskType::kLookup) + share(heavy, TaskType::kTransfer),
            0.5);
}

TEST(Plan, TimelinesAreMonotoneAndComplete) {
  const auto sched = plan_preprocessing(
      heavy_workload(), options(PreprocStrategy::kServiceWide, true, true));
  for (int type = 0; type < 4; ++type) {
    const auto& tl = sched.timeline[type];
    ASSERT_FALSE(tl.empty()) << "type " << type;
    for (std::size_t i = 1; i < tl.size(); ++i) {
      EXPECT_GE(tl[i].time_us, tl[i - 1].time_us);
      EXPECT_GE(tl[i].fraction, tl[i - 1].fraction);
    }
    EXPECT_NEAR(tl.back().fraction, 1.0, 1e-9);
    EXPECT_LE(tl.back().time_us, sched.makespan_us + 1e-9);
  }
}

TEST(Plan, ServiceWideOverlapsLookupWithSampling) {
  // The pipelined scheduler starts lookups before the last sampling hop
  // finishes; the barriered one cannot.
  const auto w = heavy_workload();
  const auto par =
      plan_preprocessing(w, options(PreprocStrategy::kParallelTasks));
  const auto sw = plan_preprocessing(
      w, options(PreprocStrategy::kServiceWide, true, true));
  const double par_sample_finish =
      par.type_finish_us[static_cast<int>(TaskType::kSample)];
  const double sw_sample_finish =
      sw.type_finish_us[static_cast<int>(TaskType::kSample)];
  // First lookup completion:
  const double par_first_k = par.timeline[static_cast<int>(TaskType::kLookup)]
                                 .front()
                                 .time_us;
  const double sw_first_k =
      sw.timeline[static_cast<int>(TaskType::kLookup)].front().time_us;
  EXPECT_GT(par_first_k, par_sample_finish);  // barriered behind R even
  EXPECT_LT(sw_first_k, sw_sample_finish);    // overlapped
}

TEST(Plan, EndToEndOverlapHidesShorterPhase) {
  PreprocSchedule sched;
  sched.makespan_us = 100.0;
  EXPECT_DOUBLE_EQ(end_to_end_us(sched, 30.0, false), 130.0);
  EXPECT_DOUBLE_EQ(end_to_end_us(sched, 30.0, true), 100.0);
  EXPECT_DOUBLE_EQ(end_to_end_us(sched, 300.0, true), 300.0);
}

TEST(Plan, CachedRowsReduceScheduledLookupAndTransfer) {
  // Rows served from an embedding cache leave the scheduled K and T work.
  BatchWorkload w;
  w.num_layers = 1;
  w.batch_size = 100;
  w.hops.push_back(HopWork{100, 500, 500, 400});
  w.layer_reindex_edges = {500};
  w.total_vertices = 500;
  w.feature_dim = 64;
  const PlanOptions opt = options(PreprocStrategy::kServiceWide, true, true);
  const auto without = plan_preprocessing(w, opt);
  w.cached_rows = 400;
  const auto with = plan_preprocessing(w, opt);
  EXPECT_LT(with.type_busy_us[static_cast<int>(TaskType::kLookup)],
            without.type_busy_us[static_cast<int>(TaskType::kLookup)]);
  EXPECT_LT(with.type_busy_us[static_cast<int>(TaskType::kTransfer)],
            without.type_busy_us[static_cast<int>(TaskType::kTransfer)]);
}

TEST(Plan, RejectsMalformedWorkload) {
  BatchWorkload w = light_workload();
  w.layer_reindex_edges.pop_back();
  EXPECT_THROW(plan_preprocessing(w, options(PreprocStrategy::kSerial)),
               std::invalid_argument);
}

class PlanAllStrategies : public ::testing::TestWithParam<PreprocStrategy> {};

TEST_P(PlanAllStrategies, ProducesPositiveFiniteMakespan) {
  for (const auto& w : {light_workload(), heavy_workload()}) {
    const auto sched = plan_preprocessing(w, options(GetParam(), true, true));
    EXPECT_GT(sched.makespan_us, 0.0);
    EXPECT_LT(sched.makespan_us, 1e9);
    // All four task types appear.
    for (int t = 0; t < 4; ++t) EXPECT_GT(sched.type_busy_us[t], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, PlanAllStrategies,
                         ::testing::Values(PreprocStrategy::kSerial,
                                           PreprocStrategy::kParallelTasks,
                                           PreprocStrategy::kServiceWideNoRelax,
                                           PreprocStrategy::kServiceWide));

}  // namespace
}  // namespace gt::pipeline
