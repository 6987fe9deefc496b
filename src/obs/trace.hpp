// Service-wide span tracing with Chrome trace-event export.
//
// Two clocks coexist in this reproduction, and the tracer records both:
//  * wall-clock spans (RAII `Span` guards) measure the host code that
//    actually runs — preprocessing executors, service batches — on
//    per-thread buffers so hot paths never contend on a shared lock;
//  * virtual-clock events place *simulated* work (the discrete-event
//    preprocessing schedule, gpusim kernel latencies) on a shared
//    simulated timeline, so one export shows a batch's S/R/K/T tasks
//    overlapping FWP/BWP exactly like the paper's Fig 20.
//
// The export is Chrome trace-event JSON ("X" complete events plus "M"
// thread-name metadata), loadable in chrome://tracing or Perfetto.
//
// A Span is also the only recorder of WorkerProfiler stages: a scope given
// a live::Stage feeds its trace event and the thread's profiler slot from
// one pair of clock reads, so stage totals and spans agree exactly.
//
// Cost model: when tracing is disabled (the default) a Span construction
// is one relaxed atomic load (two for a stage scope, whose profiler may be
// armed on its own); defining GT_OBS_DISABLE compiles the GT_OBS_SCOPE and
// GT_STAGE macros away entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/live/worker_profiler.hpp"

namespace gt::obs {

/// Process lanes in the exported trace: real threads vs simulated time.
inline constexpr std::uint32_t kWallPid = 1;
inline constexpr std::uint32_t kSimPid = 2;

/// Conventional tids on the simulated (kSimPid) timeline. CPU lanes are
/// 0..N; these sit above any plausible core count.
inline constexpr std::uint32_t kSimTidPcie = 90;
inline constexpr std::uint32_t kSimTidGpu = 99;

struct TraceEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t pid = kWallPid;
  std::uint32_t tid = 0;
  /// Pre-rendered JSON object members ("\"k\":1,\"s\":\"v\""), no braces.
  std::string args_json;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer (leaked singleton: safe from static dtors).
  static Tracer& global();

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append an event to the calling thread's buffer. `e.tid == 0` on the
  /// wall pid is replaced with the thread's registered id.
  void emit(TraceEvent e);

  /// Reserve `dur_us` on the simulated timeline; returns the offset where
  /// the reservation starts. Consecutive batches lay out back to back.
  double advance_virtual(double dur_us);

  /// Name a simulated-timeline lane ("cpu0", "pcie", "gpu"). Idempotent.
  void set_sim_thread_name(std::uint32_t tid, std::string name);

  std::size_t event_count() const;
  /// Merged copy of all per-thread buffers, for tests and exporters.
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}.
  void write_chrome_trace(std::ostream& os) const;
  /// Returns false if the file could not be opened.
  bool write_chrome_trace_file(const std::string& path) const;

  /// Drop all recorded events (buffers stay registered). Virtual clock
  /// resets to zero.
  void clear();

 private:
  struct ThreadBuffer {
    mutable std::mutex mu;  // owner appends; exporters snapshot
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<double> virtual_now_us_{0.0};

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::uint32_t, std::string>> sim_thread_names_;
  std::uint32_t next_tid_ = 1;
};

/// RAII wall-clock scope. Reads the clock only if the tracer (or, for a
/// stage scope, the profiler) is on at construction, or `always_timed`:
/// a phase scope whose caller takes the interval from stop().
class Span {
 public:
  using Clock = std::chrono::steady_clock;

  Span(const char* name, const char* cat) : name_(name), cat_(cat) {
    Tracer& t = Tracer::global();
    if (!t.enabled()) return;
    tracer_ = &t;
    start();
  }
  /// Also adds the interval to `stage` on this thread's profiler slot.
  Span(const char* name, const char* cat, live::Stage stage,
       bool always_timed = false)
      : name_(name), cat_(cat), stage_(stage) {
    Tracer& t = Tracer::global();
    if (t.enabled()) tracer_ = &t;
    live::WorkerProfiler& p = live::WorkerProfiler::global();
    if (p.enabled()) profiler_ = &p;
    if (tracer_ != nullptr || profiler_ != nullptr || always_timed) start();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { if (timed_) stop(); }

  /// True while the scope will emit a trace event.
  bool active() const noexcept { return tracer_ != nullptr; }

  /// Attach args (no-ops when inactive).
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, double v);
  void arg(const char* key, std::string_view v);

  /// End the interval now, for the trace event and the profiler alike;
  /// returns it in microseconds (0 if untimed). Idempotent.
  double stop();

 private:
  void start() noexcept {
    timed_ = true;
    start_ = Clock::now();
  }

  Tracer* tracer_ = nullptr;
  live::WorkerProfiler* profiler_ = nullptr;
  bool timed_ = false;
  Clock::time_point start_{};
  const char* name_;
  const char* cat_;
  live::Stage stage_ = live::Stage::kPrepare;
  std::string args_;
};

/// Stand-in for Span when GT_OBS_DISABLE is defined: named spans keep
/// compiling (`span.arg(...)`) while the optimizer deletes everything.
struct NullSpan {
  constexpr bool active() const noexcept { return false; }
  template <typename T>
  constexpr void arg(const char*, T&&) const noexcept {}
};

/// Append a JSON-escaped copy of `s` (no surrounding quotes) to `out`.
void json_escape(std::string_view s, std::string& out);

/// Write `v` as a JSON number with `precision` significant digits (%.*g).
/// JSON has no NaN or infinity, so a non-finite `v` is written as 0.
std::ostream& write_json_number(std::ostream& os, double v,
                                int precision = 6);

/// Write `s` as a quoted, escaped JSON string.
std::ostream& write_json_string(std::ostream& os, std::string_view s);

}  // namespace gt::obs

// Scoped-span macros: compile to nothing under GT_OBS_DISABLE so a
// latency-critical build can prove zero instrumentation cost.
#define GT_OBS_CONCAT_INNER_(a, b) a##b
#define GT_OBS_CONCAT_(a, b) GT_OBS_CONCAT_INNER_(a, b)
// GT_STAGE: a named span that is also a live::Stage (e.g. kSample).
#ifndef GT_OBS_DISABLE
#define GT_OBS_SCOPE(name, cat) \
  ::gt::obs::Span GT_OBS_CONCAT_(gt_obs_span_, __LINE__)(name, cat)
#define GT_OBS_SCOPE_N(var, name, cat) ::gt::obs::Span var(name, cat)
#define GT_STAGE(var, stage, name, cat) \
  ::gt::obs::Span var(name, cat, ::gt::obs::live::Stage::stage)
#else
#define GT_OBS_SCOPE(name, cat) ((void)0)
#define GT_OBS_SCOPE_N(var, name, cat) \
  ::gt::obs::NullSpan var;             \
  (void)var
#define GT_STAGE(var, stage, name, cat) GT_OBS_SCOPE_N(var, name, cat)
#endif
