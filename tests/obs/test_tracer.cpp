#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/json.hpp"

namespace gt::obs {
namespace {

using testing::JsonChecker;

// Each TEST uses the global tracer; reset it to a known state first.
struct TracerEnv {
  TracerEnv() {
    Tracer::global().clear();
    Tracer::global().enable(true);
  }
  ~TracerEnv() {
    Tracer::global().enable(false);
    Tracer::global().clear();
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  Tracer::global().clear();
  Tracer::global().enable(false);
  {
    GT_OBS_SCOPE("should.not.appear", "test");
    Span s("also.not", "test");
    s.arg("k", std::int64_t{1});
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST(Tracer, SpanNestingEmitsContainedIntervals) {
  TracerEnv env;
  {
    GT_OBS_SCOPE_N(outer, "outer", "test");
    {
      GT_OBS_SCOPE_N(inner, "inner", "test");
      EXPECT_TRUE(inner.active());
    }
  }
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  auto find = [&](const char* name) {
    return *std::find_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.name == name; });
  };
  const TraceEvent outer = find("outer"), inner = find("inner");
  EXPECT_EQ(outer.pid, kWallPid);
  EXPECT_EQ(outer.tid, inner.tid);  // same thread
  // Inner interval is contained in the outer one.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST(Tracer, SpanArgsAreRenderedAsJsonMembers) {
  TracerEnv env;
  {
    Span s("with.args", "test");
    s.arg("n", std::int64_t{42});
    s.arg("ratio", 0.5);
    s.arg("label", std::string_view("he\"llo"));
  }
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string wrapped = "{" + events[0].args_json + "}";
  EXPECT_TRUE(JsonChecker(wrapped).valid()) << wrapped;
  EXPECT_NE(wrapped.find("\"n\":42"), std::string::npos);
  EXPECT_NE(wrapped.find("\"label\":\"he\\\"llo\""), std::string::npos);
}

TEST(Tracer, MergesEventsAcrossThreads) {
  TracerEnv env;
  constexpr int kThreads = 4, kSpansPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i)
        GT_OBS_SCOPE("worker.span", "test");
    });
  for (auto& w : workers) w.join();
  auto events = Tracer::global().snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Tracer, VirtualClockLaysBatchesBackToBack) {
  TracerEnv env;
  Tracer& t = Tracer::global();
  const double a = t.advance_virtual(100.0);
  const double b = t.advance_virtual(50.0);
  const double c = t.advance_virtual(25.0);
  EXPECT_DOUBLE_EQ(b, a + 100.0);
  EXPECT_DOUBLE_EQ(c, b + 50.0);
}

TEST(Tracer, ChromeExportIsValidJson) {
  TracerEnv env;
  Tracer& t = Tracer::global();
  t.set_sim_thread_name(kSimTidGpu, "gpu");
  {
    Span s("wall.span", "test");
    s.arg("bytes", std::int64_t{1024});
  }
  t.emit({.name = "K.kernel",
          .cat = "kernel",
          .ts_us = 10.0,
          .dur_us = 5.0,
          .pid = kSimPid,
          .tid = kSimTidGpu,
          .args_json = "\"flops\":123"});
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"wall.span\""), std::string::npos);
  EXPECT_NE(json.find("\"K.kernel\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);  // "M" metadata
}

// JSON has no NaN or infinity: a non-finite double arg is written as 0
// (write_json_number), so the exported trace still parses.
TEST(Tracer, NonFiniteDoubleArgsKeepTheTraceParseable) {
  TracerEnv env;
  {
    Span s("non.finite", "test");
    s.arg("nan", std::nan(""));
    s.arg("inf", std::numeric_limits<double>::infinity());
    s.arg("ninf", -std::numeric_limits<double>::infinity());
    s.arg("half", 0.5);
  }
  std::ostringstream os;
  Tracer::global().write_chrome_trace(os);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(os.str(), &doc, &error)) << error << "\n" << os.str();
  const std::string json = os.str();
  EXPECT_NE(json.find("\"nan\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ninf\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"half\":0.5"), std::string::npos) << json;
}

TEST(Tracer, ClearDropsEventsAndResetsVirtualClock) {
  TracerEnv env;
  Tracer& t = Tracer::global();
  { GT_OBS_SCOPE("ephemeral", "test"); }
  t.advance_virtual(77.0);
  EXPECT_GT(t.event_count(), 0u);
  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_DOUBLE_EQ(t.advance_virtual(1.0), 0.0);
}

}  // namespace
}  // namespace gt::obs
