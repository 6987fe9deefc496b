// One clock per host interval: a batch's prepare and execute phases are
// timed by one scope each, whose single pair of clock reads feeds the
// trace span, the WorkerProfiler stage and RunReport::host_*_us. Every
// profiler stage is recorded only by scopes that also emit a span, so each
// stage total is exactly the sum of its span twins' durations.
#include "core/graphtensor.hpp"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/live/worker_profiler.hpp"
#include "obs/trace.hpp"

namespace gt {
namespace {

using obs::live::Stage;
using obs::live::WorkerProfiler;

// Span twins of every profiler stage (worker_profiler.hpp lists them).
const std::map<std::string, Stage>& stage_of_span() {
  static const std::map<std::string, Stage> twins = {
      {"frameworks.prepare_batch", Stage::kPrepare},
      {"frameworks.run_batch", Stage::kExecute},
      {"S.sample", Stage::kSample},
      {"R.layer", Stage::kReindex},
      {"K.lookup", Stage::kLookup},
      {"T.upload", Stage::kTransfer},
      {"frameworks.forward", Stage::kForward},
      {"frameworks.backward", Stage::kBackward}};
  return twins;
}

std::int64_t batch_arg(const obs::TraceEvent& e) {
  const std::string needle = "\"batch\":";
  const std::size_t at = e.args_json.find(needle);
  return at == std::string::npos
             ? -1
             : std::atoll(e.args_json.c_str() + at + needle.size());
}

/// Arms the tracer and the profiler for one scope, then disarms both.
class Observed {
 public:
  Observed() {
    obs::Tracer::global().clear();
    WorkerProfiler::global().reset();
    obs::Tracer::global().enable(true);
    WorkerProfiler::global().enable(true);
  }
  ~Observed() {
    obs::Tracer::global().enable(false);
    WorkerProfiler::global().enable(false);
    obs::Tracer::global().clear();
    WorkerProfiler::global().reset();
  }
  Observed(const Observed&) = delete;
  Observed& operator=(const Observed&) = delete;
};

struct PhaseSpans {
  std::map<std::int64_t, std::vector<double>> prepare_us, execute_us;
};

/// Checks that every stage total equals the sum of its span twins (within
/// 1 ns per span) and returns the phase spans by batch.
PhaseSpans check_stages_match_spans(bool expect_every_stage) {
  const std::vector<obs::TraceEvent> events = obs::Tracer::global().snapshot();
  const std::array<std::uint64_t, obs::live::kNumStages> totals =
      WorkerProfiler::global().stage_totals();
  std::array<double, obs::live::kNumStages> span_ns{};
  std::array<std::size_t, obs::live::kNumStages> spans{};
  PhaseSpans phases;
  for (const obs::TraceEvent& e : events) {
    const auto it = stage_of_span().find(e.name);
    if (e.pid != obs::kWallPid || it == stage_of_span().end()) continue;
    const auto s = static_cast<std::size_t>(it->second);
    span_ns[s] += e.dur_us * 1e3;
    ++spans[s];
    if (it->second == Stage::kPrepare)
      phases.prepare_us[batch_arg(e)].push_back(e.dur_us);
    if (it->second == Stage::kExecute)
      phases.execute_us[batch_arg(e)].push_back(e.dur_us);
  }
  for (std::size_t s = 0; s < obs::live::kNumStages; ++s) {
    SCOPED_TRACE(obs::live::to_string(static_cast<Stage>(s)));
    EXPECT_NEAR(static_cast<double>(totals[s]), span_ns[s],
                static_cast<double>(spans[s]) + 0.5);
    if (expect_every_stage) {
      EXPECT_GT(spans[s], 0u);
      EXPECT_GT(totals[s], 0u);
    }
  }
  return phases;
}

ServiceOptions options(const char* framework, std::size_t workers) {
  ServiceOptions opt;
  opt.framework = framework;
  opt.batch_size = 48;
  opt.workers = workers;
  return opt;
}

TEST(PhaseClock, SpansProfilerAndReportShareOneClockWhenTraining) {
  constexpr std::size_t kBatches = 4;
  for (const char* framework : {"Prepro-GT", "DGL"}) {
    for (const std::size_t workers : {1, 3}) {
      SCOPED_TRACE(std::string(framework) + " workers=" +
                   std::to_string(workers));
      GnnService service(generate("products", 3), models::gcn(8, 47),
                         options(framework, workers));
      std::vector<frameworks::RunReport> reports;
      PhaseSpans phases;
      std::array<std::uint64_t, obs::live::kNumStages> totals{};
      {
        Observed observed;
        reports = service.train_batches(kBatches);
        phases = check_stages_match_spans(/*expect_every_stage=*/true);
        totals = WorkerProfiler::global().stage_totals();
      }
      ASSERT_EQ(reports.size(), kBatches);
      double prepare_sum = 0.0, execute_sum = 0.0;
      for (std::size_t i = 0; i < kBatches; ++i) {
        SCOPED_TRACE(i);
        const auto b = static_cast<std::int64_t>(i);
        ASSERT_EQ(phases.prepare_us[b].size(), 1u);
        ASSERT_EQ(phases.execute_us[b].size(), 1u);
        EXPECT_GT(reports[i].host_prepare_us, 0.0);
        EXPECT_EQ(phases.prepare_us[b][0], reports[i].host_prepare_us);
        EXPECT_EQ(phases.execute_us[b][0], reports[i].host_execute_us);
        prepare_sum += reports[i].host_prepare_us;
        execute_sum += reports[i].host_execute_us;
      }
      EXPECT_NEAR(static_cast<double>(
                      totals[static_cast<std::size_t>(Stage::kPrepare)]),
                  prepare_sum * 1e3, static_cast<double>(kBatches));
      EXPECT_NEAR(static_cast<double>(
                      totals[static_cast<std::size_t>(Stage::kExecute)]),
                  execute_sum * 1e3, static_cast<double>(kBatches));
    }
  }
}

TEST(PhaseClock, ServeRingTimesEachPhaseOnce) {
  GnnService service(generate("products", 3), models::gcn(8, 47),
                     options("Prepro-GT", 2));
  serving::ServeConfig cfg;
  cfg.arrival.kind = serving::ArrivalKind::kPoisson;
  cfg.arrival.rate_rps = 2'000.0;
  cfg.arrival.seed = 42;
  cfg.requests = 32;
  cfg.vertices_per_request = 16;
  cfg.batch.max_batch_requests = 4;
  cfg.batch.max_wait_ticks = 1'500;
  cfg.queue_depth = 64;
  Observed observed;
  const serving::ServeReport rep = service.serve(cfg);
  // serve() runs forward only, so the backward stage stays empty.
  const PhaseSpans phases =
      check_stages_match_spans(/*expect_every_stage=*/false);
  ASSERT_GT(rep.batches, 0u);
  // Warm-up batches plus one per served batch, each timed exactly once.
  EXPECT_EQ(phases.prepare_us.size(), phases.execute_us.size());
  EXPECT_GT(phases.execute_us.size(), rep.batches);
  for (const auto& [batch, durs] : phases.execute_us) {
    SCOPED_TRACE(batch);
    EXPECT_GE(batch, 0);
    EXPECT_EQ(durs.size(), 1u);
    EXPECT_EQ(phases.prepare_us.at(batch).size(), 1u);
  }
}

}  // namespace
}  // namespace gt
