// gt_perfbench: one run of one benchmark workload (see README.md).
//
//   gt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--out DIR] [--workers N] [--compute-threads N]
//                [--scale full|tiny] [--expect-digest HEX] [--git-sha SHA]
//
// The run drives only the public API: datasets::generate, the GnnService
// constructor, train_batches / serve, and the RunReport / ServeReport they
// return. It sets the workload up several times (setup_s is the median),
// then either
//   --trace 0: times an untraced window of at least S seconds and prints
//              the end-to-end metrics, or
//   --trace 1: alternates traced and untraced chunks for at least S
//              seconds; the per-layer metrics come from a fixed set of the
//              traced chunks (their Tracer spans, simulated timeline and
//              metric-registry deltas), the tracing overhead from all pairs.
// Every run checks its outputs. A failed check prints the reason on stderr
// and exits 1 without a result; a bad argument exits 2. The last stdout
// line is the result object {"correct","attempted","failed","metrics"}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.hpp"
#include "datasets/catalog.hpp"
#include "fault/harness.hpp"
#include "models/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "serving/types.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. A "chunk" is one public call inside a window: train_batches(
// chunk) on the training workloads, serve() of `chunk` requests on
// serve-light. An "op" is what attempted/failed count: a training batch or
// a served request.

struct WorkloadDef {
  std::string_view name;
  std::string_view dataset;
  bool serve = false;
  std::size_t cache_budget = 0;  // bytes; 0 = cache off
  std::size_t warmup = 0;        // batches, or requests of a warm-up serve()
  std::size_t chunk = 0;         // batches per train_batches / requests per serve
  std::size_t sim_chunks = 0;    // chunks whose simulated clock is reported
  std::size_t trace_chunks = 0;  // chunks in the traced window
  std::size_t setup_reps = 0;    // setups per run; setup_s is their median
  std::size_t compute_threads = 0;  // default compute-engine threads
};

// Full-size workloads. Why each exists is in README.md. train-heavy, where
// device compute dominates host time, runs the compute engine on two
// threads; the others run it on one, which keeps their host figures
// steadier on a four-core machine.
constexpr WorkloadDef kWorkloads[] = {
    {.name = "train-heavy", .dataset = "livejournal", .warmup = 4, .chunk = 8,
     .sim_chunks = 4, .trace_chunks = 1, .setup_reps = 5, .compute_threads = 2},
    {.name = "train-skew-cache", .dataset = "social", .cache_budget = 4u << 20,
     .warmup = 4, .chunk = 8, .sim_chunks = 6, .trace_chunks = 2,
     .setup_reps = 5, .compute_threads = 1},
    {.name = "serve-light", .dataset = "products", .serve = true, .warmup = 200,
     .chunk = 1000, .sim_chunks = 10, .trace_chunks = 1, .setup_reps = 5,
     .compute_threads = 1},
};

// The same workloads shrunk for the benchmark's own test.
WorkloadDef tiny(WorkloadDef w) {
  w.warmup = w.serve ? 50 : 1;
  w.chunk = w.serve ? 100 : 2;
  w.sim_chunks = 2;
  w.trace_chunks = 1;
  w.setup_reps = 1;
  return w;
}

// serve-light traffic: open-loop poisson at about 2/3 of the sustainable
// rate, with a finite SLO well above the p99 this rate produces.
constexpr double kServeRateRps = 1000.0;
constexpr gt::serving::Tick kServeSloTicks = 50'000;

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::size_t workers = 0;
  std::size_t compute_threads = 0;
  bool tiny = false;
  std::optional<std::uint64_t> expect_digest;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "gt_perfbench: %s\n", why.c_str());
  std::exit(2);
}

[[noreturn]] void check_failed(const std::string& why) {
  std::fprintf(stderr, "gt_perfbench: correctness check failed: %s\n",
               why.c_str());
  std::exit(1);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
    usage_error(flag + ": not a non-negative integer: '" + text + "'");
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::string workload, scale = "full";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--workers") {
      o.workers = parse_u64(flag, value);
    } else if (flag == "--compute-threads") {
      o.compute_threads = parse_u64(flag, value);
    } else if (flag == "--scale") {
      scale = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = parse_u64(flag, value, 16);
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  for (const WorkloadDef& w : kWorkloads)
    if (w.name == workload) o.workload = &w;
  if (o.workload == nullptr)
    usage_error("--workload must be train-heavy, train-skew-cache or "
                "serve-light (got '" + workload + "')");
  if (!have_seed || !have_seconds || !have_trace)
    usage_error("--seed, --seconds and --trace are required");
  if (o.seconds < 1) usage_error("--seconds must be >= 1");
  if (scale != "full" && scale != "tiny")
    usage_error("--scale must be full or tiny");
  o.tiny = scale == "tiny";

  // Thread budget: `workers` preparers plus the compute engine may not
  // exceed nproc. Below four cores the defaults drop to one of each.
  const long nproc_l = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = nproc_l > 0 ? static_cast<std::size_t>(nproc_l) : 1;
  if (o.workers == 0) o.workers = nproc >= 4 ? 2 : 1;
  if (o.compute_threads == 0)
    o.compute_threads = nproc >= 4 ? o.workload->compute_threads : 1;
  if (o.workers + o.compute_threads > nproc)
    usage_error("workers (" + std::to_string(o.workers) +
                ") + compute threads (" + std::to_string(o.compute_threads) +
                ") exceed nproc (" + std::to_string(nproc) + ")");
  return o;
}

// ---------------------------------------------------------------------------
// Metrics.

enum class Kind { kEndToEnd, kPerLayer, kExtra };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  // host | sim | count
  Kind kind = Kind::kExtra;
};

std::string num(double v) {
  if (!std::isfinite(v)) check_failed("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, the rule ServeReport uses for its percentiles.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Running the workload.

struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

gt::ServiceOptions service_options(const Options& o) {
  gt::ServiceOptions opt;
  opt.framework = "Prepro-GT";
  opt.seed = o.seed;
  opt.workers = o.workers;
  opt.compute_threads = o.compute_threads;
  opt.cache_budget_bytes = o.workload->cache_budget;
  if (opt.cache_budget_bytes > 0) {
    opt.cache_policy = gt::sampling::CachePolicy::kTiered;
    opt.cache_prefetch = true;
  }
  return opt;
}

gt::serving::ServeConfig serve_config(const Options& o, std::size_t requests,
                                      std::uint64_t call) {
  gt::serving::ServeConfig c;
  c.arrival.kind = gt::serving::ArrivalKind::kPoisson;
  c.arrival.rate_rps = kServeRateRps;
  // One arrival stream per serve() call, all derived from the run's seed.
  c.arrival.seed = o.seed * 1'000'003ull + call;
  c.requests = requests;
  c.slo_ticks = kServeSloTicks;
  return c;
}

/// Counts batch outcomes and checks every training loss is finite.
void tally_batches(const std::vector<gt::frameworks::RunReport>& reports,
                   OpTally& t) {
  for (const gt::frameworks::RunReport& r : reports) {
    ++t.attempted;
    if (!r.ok()) {
      ++t.failed;
      continue;
    }
    if (!std::isfinite(r.loss))
      check_failed("non-finite training loss on a batch of " + r.dataset);
  }
}

/// Checks serve() request conservation and counts shed/degraded requests.
void tally_serve(const gt::serving::ServeReport& rep, std::size_t requests,
                 OpTally& t) {
  const std::uint64_t shed = rep.shed();
  if (rep.arrived != requests || rep.records.size() != requests)
    check_failed("serve() decided " + std::to_string(rep.arrived) + " of " +
                 std::to_string(requests) + " requests");
  if (rep.admitted + shed != rep.arrived)
    check_failed("serve(): admitted + shed != arrived");
  if (rep.completed + rep.degraded > rep.admitted)
    check_failed("serve(): completed + degraded > admitted");
  for (const gt::serving::RequestRecord& r : rep.records)
    if (r.outcome == gt::serving::Outcome::kCompleted && r.latency_ticks == 0)
      check_failed("serve(): completed request with zero latency");
  t.attempted += rep.arrived;
  t.failed += rep.arrived - rep.completed;
}

struct SetupTimes {
  double generate_s = 0.0;
  double ctor_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const { return generate_s + ctor_s + warmup_s; }
};

struct Setup {
  std::unique_ptr<gt::GnnService> service;
  SetupTimes times;
};

/// Dataset generation, service construction and warm-up: everything a
/// user pays before the first timed call (cache-hierarchy build, first DKP
/// fits, arena growth).
Setup set_up(const Options& o, const WorkloadDef& w, OpTally& tally) {
  Setup s;
  SetupTimes& t = s.times;
  gt::obs::Span span("bench.setup", "bench");
  Clock::time_point t0 = Clock::now();
  gt::Dataset data = [&] {
    gt::obs::Span g("bench.generate", "bench");
    return gt::generate(w.dataset, o.seed);
  }();
  t.generate_s = seconds_since(t0);

  t0 = Clock::now();
  {
    gt::obs::Span c("bench.service_ctor", "bench");
    const gt::models::GnnModelConfig model =
        gt::models::gcn(data.spec.hidden_dim, data.spec.output_dim);
    s.service = std::make_unique<gt::GnnService>(std::move(data), model,
                                                 service_options(o));
  }
  t.ctor_s = seconds_since(t0);

  t0 = Clock::now();
  {
    gt::obs::Span c("bench.warmup", "bench");
    if (w.serve)
      tally_serve(s.service->serve(serve_config(o, w.warmup, 0)), w.warmup,
                  tally);
    else
      tally_batches(s.service->train_batches(w.warmup), tally);
  }
  t.warmup_s = seconds_since(t0);
  return s;
}

/// One chunk's results: its wall time and, for the simulated-clock
/// metrics, the priced per-op values.
struct ChunkResult {
  double seconds = 0.0;
  std::uint64_t ops = 0;              // batches or decided requests
  std::vector<double> batch_e2e_us;   // ok batches (training)
  std::vector<double> latency_us;     // completed requests (serving)
  double serve_batch_e2e_sum = 0.0;   // serving: frameworks.e2e_us delta
  std::uint64_t serve_batches = 0;
  std::uint64_t goodput_requests = 0;
  std::uint64_t span_ticks = 0;
  std::uint64_t shed = 0;
  double batch_fill = 0.0;            // serving: mean requests per batch / max
  double peak_device_bytes = 0.0;     // training: max over the chunk's batches
};

class Runner {
 public:
  Runner(const Options& o, const WorkloadDef& w, gt::GnnService& svc,
         OpTally& tally)
      : o_(o), w_(w), svc_(svc), tally_(tally) {}

  ChunkResult run_chunk() {
    ChunkResult c;
    const std::uint64_t call = ++calls_;
    if (w_.serve) {
      gt::obs::Histogram& e2e = gt::obs::metrics().histogram("frameworks.e2e_us");
      const double sum0 = e2e.sum();
      const std::uint64_t n0 = e2e.count();
      const Clock::time_point t0 = Clock::now();
      gt::serving::ServeReport rep;
      {
        gt::obs::Span span("bench.serve", "bench");
        rep = svc_.serve(serve_config(o_, w_.chunk, call));
      }
      c.seconds = seconds_since(t0);
      tally_serve(rep, w_.chunk, tally_);
      c.ops = rep.arrived;
      for (const gt::serving::RequestRecord& r : rep.records)
        if (r.outcome == gt::serving::Outcome::kCompleted)
          c.latency_us.push_back(static_cast<double>(r.latency_ticks));
      c.serve_batch_e2e_sum = e2e.sum() - sum0;
      c.serve_batches = e2e.count() - n0;
      c.goodput_requests = rep.goodput_requests;
      c.span_ticks = rep.span_ticks;
      c.shed = rep.shed();
      c.batch_fill = rep.mean_batch_fill;
    } else {
      const Clock::time_point t0 = Clock::now();
      std::vector<gt::frameworks::RunReport> reports;
      {
        gt::obs::Span span("bench.train_batches", "bench");
        reports = svc_.train_batches(w_.chunk);
      }
      c.seconds = seconds_since(t0);
      tally_batches(reports, tally_);
      c.ops = reports.size();
      for (const gt::frameworks::RunReport& r : reports) {
        if (r.ok()) c.batch_e2e_us.push_back(r.end_to_end_us);
        c.peak_device_bytes = std::max(
            c.peak_device_bytes, static_cast<double>(r.peak_memory_bytes));
      }
    }
    if (call == 1 && !w_.serve) digest_ = gt::fault::params_digest(svc_.params());
    return c;
  }

  /// Chunks until at least `min_chunks` ran and `seconds` elapsed.
  std::vector<ChunkResult> run_window(std::size_t min_chunks, double seconds) {
    std::vector<ChunkResult> out;
    const Clock::time_point t0 = Clock::now();
    while (out.size() < min_chunks || seconds_since(t0) < seconds)
      out.push_back(run_chunk());
    return out;
  }

  /// Parameters after warm-up plus one chunk: the checkpoint the
  /// correctness check compares against a serial replay.
  std::optional<std::uint64_t> checkpoint_digest() const { return digest_; }

 private:
  const Options& o_;
  const WorkloadDef& w_;
  gt::GnnService& svc_;
  OpTally& tally_;
  std::uint64_t calls_ = 0;
  std::optional<std::uint64_t> digest_;
};

/// The checkpoint digest replayed serially (workers = 1, one compute
/// thread) on a fresh service, outside every timed window.
std::uint64_t serial_replay_digest(const Options& o, const WorkloadDef& w) {
  Options serial = o;
  serial.workers = 1;
  serial.compute_threads = 1;
  OpTally uncounted;
  const Setup s = set_up(serial, w, uncounted);
  s.service->train_batches(w.chunk);
  return gt::fault::params_digest(s.service->params());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Ops per host second over a window: total ops over total time.
/// Interference on a shared machine comes in phases of several seconds at
/// two or three speeds; this mean moves less between runs than the median
/// chunk rate, which jumps to whichever phase covered more chunks.
double ops_per_s(const std::vector<ChunkResult>& chunks) {
  double ops = 0.0, seconds = 0.0;
  for (const ChunkResult& c : chunks) {
    ops += static_cast<double>(c.ops);
    seconds += c.seconds;
  }
  return ops / seconds;
}

// ---------------------------------------------------------------------------
// End-to-end metrics (untraced window).

void end_to_end_metrics(const WorkloadDef& w,
                        const std::vector<ChunkResult>& window,
                        std::vector<Metric>& out) {
  const auto e2e = [&](std::string name, double v, std::string unit,
                       std::string clock) {
    out.push_back({std::move(name), v, std::move(unit), std::move(clock),
                   Kind::kEndToEnd});
  };
  const auto extra = [&](std::string name, double v, std::string unit,
                         std::string clock) {
    out.push_back({std::move(name), v, std::move(unit), std::move(clock),
                   Kind::kExtra});
  };
  e2e("host_ops_per_s", ops_per_s(window), "1/s", "host");
  e2e("peak_rss_mb", peak_rss_mb(), "MB", "host");

  // Simulated clock: only the fixed prefix of sim_chunks chunks, so the
  // figures do not depend on how many chunks the host managed to run.
  std::vector<double> op_us;
  double batch_sum = 0.0;
  std::uint64_t batches = 0, goodput = 0, span_ticks = 0;
  for (std::size_t i = 0; i < w.sim_chunks; ++i) {
    const ChunkResult& c = window[i];
    if (w.serve) {
      op_us.insert(op_us.end(), c.latency_us.begin(), c.latency_us.end());
      batch_sum += c.serve_batch_e2e_sum;
      batches += c.serve_batches;
      goodput += c.goodput_requests;
      span_ticks += c.span_ticks;
    } else {
      op_us.insert(op_us.end(), c.batch_e2e_us.begin(), c.batch_e2e_us.end());
      for (double x : c.batch_e2e_us) batch_sum += x;
      batches += c.batch_e2e_us.size();
    }
  }
  e2e("sim_batch_us", batches ? batch_sum / static_cast<double>(batches) : 0.0,
      "sim_us", "sim");
  e2e("sim_op_p50_us", quantile(op_us, 0.50), "sim_us", "sim");
  e2e("sim_op_p99_us", quantile(op_us, 0.99), "sim_us", "sim");
  extra("sim_op_samples", static_cast<double>(op_us.size()), "count", "count");
  if (w.serve)
    extra("sim_goodput_rps",
          span_ticks ? static_cast<double>(goodput) * 1e6 /
                           static_cast<double>(span_ticks)
                     : 0.0,
          "1/sim_s", "sim");
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced window).

/// Counter values and histogram sums and counts (as "<name>.sum" and
/// "<name>.count") from the metric registry.
using Reading = std::map<std::string, double>;

Reading read_registry() {
  Reading r;
  gt::obs::MetricsRegistry& m = gt::obs::metrics();
  for (const char* c :
       {"frameworks.batches", "gpusim.kernel_launches", "gpusim.global_bytes",
        "gpusim.cache_loaded_bytes", "gpusim.flops", "embedding_cache.hits",
        "embedding_cache.misses", "cache.evictions", "cache.prefetch.hits",
        "batch_context.arena_growths", "serving.batches"})
    r[c] = static_cast<double>(m.counter(c).value());
  for (const std::string h :
       {"frameworks.e2e_us", "frameworks.preproc_us", "frameworks.kernel_us"}) {
    r[h + ".sum"] = m.histogram(h).sum();
    r[h + ".count"] = static_cast<double>(m.histogram(h).count());
  }
  return r;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `spans` clipped to the `windows`.
double covered_us(std::vector<Interval> spans,
                  const std::vector<Interval>& windows) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0.0;
  for (const Interval& win : windows) {
    double cursor = win.begin;
    for (const Interval& s : spans) {
      const double b = std::max(s.begin, cursor);
      const double e = std::min(s.end, win.end);
      if (e > b) {
        total += e - b;
        cursor = e;
      }
    }
  }
  return total;
}

/// The traced chunks the per-layer metrics describe, and the untraced
/// chunks interleaved with them that price the tracing.
struct TracedWindow {
  std::vector<ChunkResult> chunks;     // fixed: the first trace_chunks traced
  Reading registry_delta;              // over `chunks` only
  std::vector<gt::obs::TraceEvent> events;
  std::size_t arena_peak_bytes = 0;    // gauge after the last of `chunks`
  std::vector<ChunkResult> traced, untraced;  // every pair, for the overhead
};

/// Alternates traced and untraced chunks until at least `trace_chunks`
/// pairs ran and `seconds` elapsed. Neighbouring chunks share the
/// machine's phase, so the pairs price the tracer far more steadily than
/// two separate windows would.
TracedWindow run_traced(Runner& runner, const WorkloadDef& w,
                        const Options& o) {
  TracedWindow tw;
  gt::obs::Tracer& tracer = gt::obs::Tracer::global();
  tracer.clear();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < w.trace_chunks || seconds_since(t0) < o.seconds;
       ++i) {
    const bool kept = i < w.trace_chunks;
    const Reading before = kept ? read_registry() : Reading{};
    tracer.enable(true);
    tw.traced.push_back(runner.run_chunk());
    tracer.enable(false);
    if (kept) {
      tw.chunks.push_back(tw.traced.back());
      for (const auto& [name, v] : read_registry())
        tw.registry_delta[name] += v - before.at(name);
    }
    if (i + 1 == w.trace_chunks) {
      tw.events = tracer.snapshot();
      tw.arena_peak_bytes = static_cast<std::size_t>(
          gt::obs::metrics().gauge("batch_context.arena_peak_bytes").value());
      if (!o.out_dir.empty()) {
        const std::string path = o.out_dir + "/" + std::string(w.name) +
                                 "-seed" + std::to_string(o.seed) +
                                 ".trace.json";
        if (!tracer.write_chrome_trace_file(path))
          usage_error("cannot write " + path);
      }
    }
    if (!kept || i + 1 == w.trace_chunks) tracer.clear();
    tw.untraced.push_back(runner.run_chunk());
  }
  return tw;
}

void per_layer_metrics(const WorkloadDef& w, const TracedWindow& tw,
                       const SetupTimes& setup, std::vector<Metric>& out) {
  const auto add = [&](std::string name, double v, std::string unit,
                       std::string clock) {
    out.push_back({std::move(name), v, std::move(unit), std::move(clock),
                   Kind::kPerLayer});
  };
  const auto delta = [&](const std::string& name) {
    return tw.registry_delta.at(name);
  };
  const auto hist = [&](const std::string& h) {
    return std::pair<double, double>{delta(h + ".sum"), delta(h + ".count")};
  };
  const double batches = std::max(1.0, delta("frameworks.batches"));

  add("datasets.generate_s", setup.generate_s, "s", "host");
  add("core.service_ctor_s", setup.ctor_s, "s", "host");
  add("core.warmup_s", setup.warmup_s, "s", "host");

  // Wall spans. The executing thread is the one running the bench.* calls.
  std::uint32_t main_tid = 0;
  std::vector<Interval> calls;
  for (const gt::obs::TraceEvent& e : tw.events)
    if (e.pid == gt::obs::kWallPid &&
        (e.name == "bench.train_batches" || e.name == "bench.serve")) {
      main_tid = e.tid;
      calls.push_back({e.ts_us, e.ts_us + e.dur_us});
    }
  std::sort(calls.begin(), calls.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });

  std::vector<double> prepare_ms, execute_ms;
  std::vector<Interval> executes, main_layer_spans;
  double sample_us = 0, reindex_us = 0, lookup_us = 0, fwd_us = 0, bwd_us = 0;
  double dkp_layers = 0, comb_first_layers = 0;
  double sim_stage_us[4] = {0, 0, 0, 0};  // sampling reindex lookup transfer
  for (const gt::obs::TraceEvent& e : tw.events) {
    if (e.pid == gt::obs::kSimPid) {
      static constexpr std::string_view kStages[4] = {"sampling", "reindex",
                                                      "lookup", "transfer"};
      for (int s = 0; s < 4; ++s)
        if (e.cat == kStages[s]) sim_stage_us[s] += e.dur_us;
      continue;
    }
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.name == "frameworks.prepare_batch") {
      prepare_ms.push_back(e.dur_us / 1e3);
      if (e.tid == main_tid) main_layer_spans.push_back(iv);
    } else if (e.name == "frameworks.run_batch") {
      execute_ms.push_back(e.dur_us / 1e3);
      if (e.tid == main_tid) {
        executes.push_back(iv);
        main_layer_spans.push_back(iv);
      }
    } else if (e.name == "S.sample") {
      sample_us += e.dur_us;
    } else if (e.name == "R.layer") {
      reindex_us += e.dur_us;
    } else if (e.name == "K.lookup") {
      lookup_us += e.dur_us;
    } else if (e.name == "dfg.layer_forward" || e.name == "dfg.layer_backward") {
      (e.name == "dfg.layer_forward" ? fwd_us : bwd_us) += e.dur_us;
      dkp_layers += 1;
      if (e.args_json.find("combination-first") != std::string::npos)
        comb_first_layers += 1;
    }
  }

  // Executing-thread wait per batch: from the end of the previous execute
  // (or the start of the call) to the start of this one.
  std::sort(executes.begin(), executes.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<double> wait_ms;
  for (const Interval& call : calls) {
    double cursor = call.begin;
    for (const Interval& x : executes)
      if (x.begin >= call.begin && x.end <= call.end) {
        wait_ms.push_back((x.begin - cursor) / 1e3);
        cursor = x.end;
      }
  }
  add("core.exec_wait_ms_p50", quantile(wait_ms, 0.50), "ms", "host");
  add("core.exec_wait_ms_p95", quantile(wait_ms, 0.95), "ms", "host");
  add("frameworks.prepare_ms_p50", quantile(prepare_ms, 0.50), "ms", "host");
  add("frameworks.prepare_ms_p95", quantile(prepare_ms, 0.95), "ms", "host");
  add("frameworks.execute_ms_p50", quantile(execute_ms, 0.50), "ms", "host");
  add("frameworks.execute_ms_p95", quantile(execute_ms, 0.95), "ms", "host");
  add("sampling.sample_ms", sample_us / 1e3 / batches, "ms", "host");
  add("sampling.reindex_ms", reindex_us / 1e3 / batches, "ms", "host");
  add("sampling.lookup_ms", lookup_us / 1e3 / batches, "ms", "host");

  const double hits = delta("embedding_cache.hits");
  const double misses = delta("embedding_cache.misses");
  add("sampling.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
      "fraction", "count");
  add("sampling.cache_evictions", delta("cache.evictions") / batches, "count",
      "count");
  add("sampling.cache_prefetch_hits", delta("cache.prefetch.hits") / batches,
      "count", "count");

  add("pipeline.sim_sample_us", sim_stage_us[0] / batches, "sim_us", "sim");
  add("pipeline.sim_reindex_us", sim_stage_us[1] / batches, "sim_us", "sim");
  add("pipeline.sim_lookup_us", sim_stage_us[2] / batches, "sim_us", "sim");
  add("pipeline.sim_transfer_us", sim_stage_us[3] / batches, "sim_us", "sim");
  const auto [preproc_sum, preproc_n] = hist("frameworks.preproc_us");
  add("pipeline.sim_preproc_makespan_us",
      preproc_n > 0 ? preproc_sum / preproc_n : 0.0, "sim_us", "sim");

  add("dfg.forward_ms", fwd_us / 1e3 / batches, "ms", "host");
  add("dfg.fwd_bwd_ms", (fwd_us + bwd_us) / 1e3 / batches, "ms", "host");
  add("dfg.comb_first_share", dkp_layers > 0 ? comb_first_layers / dkp_layers : 0.0,
      "fraction", "count");

  const auto [kernel_sum, kernel_n] = hist("frameworks.kernel_us");
  add("gpusim.sim_kernel_us", kernel_n > 0 ? kernel_sum / kernel_n : 0.0,
      "sim_us", "sim");
  add("gpusim.kernel_launches", delta("gpusim.kernel_launches") / batches,
      "count", "count");
  add("gpusim.global_bytes", delta("gpusim.global_bytes") / batches, "bytes",
      "count");
  add("gpusim.cache_loaded_bytes", delta("gpusim.cache_loaded_bytes") / batches,
      "bytes", "count");
  add("kernels.flops", delta("gpusim.flops") / batches, "count", "count");
  double execute_us_total = 0.0;
  for (double x : execute_ms) execute_us_total += x * 1e3;
  add("gpusim.host_us_per_sim_us",
      kernel_sum > 0 ? execute_us_total / kernel_sum : 0.0, "ratio", "host");
  double peak_device = 0.0, fill_sum = 0.0;
  std::uint64_t requests = 0, shed = 0;
  for (const ChunkResult& c : tw.chunks) {
    peak_device = std::max(peak_device, c.peak_device_bytes);
    fill_sum += c.batch_fill;
    requests += w.serve ? c.ops : 0;
    shed += c.shed;
  }
  add("gpusim.peak_device_mb", peak_device / (1024.0 * 1024.0), "MB", "sim");
  // Arena figures belong to the worker contexts, so they depend on which
  // context ran which batch: host-side, not worker-invariant.
  add("tensor.arena_peak_kb", static_cast<double>(tw.arena_peak_bytes) / 1024.0,
      "KB", "host");
  add("tensor.arena_growths", delta("batch_context.arena_growths"), "count",
      "host");

  add("serving.batches", delta("serving.batches"), "count", "count");
  add("serving.mean_batch_fill",
      w.serve ? fill_sum / static_cast<double>(tw.chunks.size()) : 0.0,
      "fraction", "count");
  add("serving.shed_share",
      requests ? static_cast<double>(shed) / static_cast<double>(requests) : 0.0,
      "fraction", "count");

  double call_us = 0.0;
  for (const Interval& c : calls) call_us += c.end - c.begin;
  add("obs.trace_overhead_pct",
      (ops_per_s(tw.untraced) / ops_per_s(tw.traced) - 1.0) * 100.0, "%",
      "host");
  add("obs.unattributed_pct",
      call_us > 0 ? (1.0 - covered_us(main_layer_spans, calls) / call_us) * 100.0
                  : 0.0,
      "%", "host");
}

// ---------------------------------------------------------------------------
// Output.

std::string metric_json(const Metric& m, bool with_clock) {
  std::string s = "{\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"";
  if (with_clock) s += ", \"clock\": \"" + m.clock + "\"";
  return s + "}";
}

void write_results_file(const Options& o, const std::vector<Metric>& metrics,
                        const OpTally& tally, const std::string& meta) {
  const std::string path = o.out_dir + "/" + std::string(o.workload->name) +
                           "-seed" + std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"meta\": " << meta << ", \"attempted\": " << tally.attempted
    << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    f << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": " << metric_json(metrics[i], true);
  f << "}}\n";
  if (!f) usage_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold whenever a large mmapped buffer is
  // freed, so whether later buffers come from the heap depends on the order
  // of frees: peak RSS of train-heavy read 81 or 114 MB by seed alone.
  // A fixed threshold (glibc's ceiling) makes the figure reproducible.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  const Options o = parse_args(argc, argv);
  const WorkloadDef w = o.tiny ? tiny(*o.workload) : *o.workload;
  if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);

#ifndef NDEBUG
  std::fprintf(stderr,
               "gt_perfbench: warning: assertions are on (not an optimized "
               "build); host-clock figures are not comparable\n");
#endif
  const std::string meta =
      "{\"workload\": \"" + std::string(w.name) + "\", \"seed\": " +
      std::to_string(o.seed) + ", \"seconds\": " + num(o.seconds) +
      ", \"trace\": " + (o.trace ? "1" : "0") + ", \"scale\": \"" +
      (o.tiny ? "tiny" : "full") + "\", \"nproc\": " +
      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"workers\": " +
      std::to_string(o.workers) + ", \"compute_threads\": " +
      std::to_string(o.compute_threads) + ", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"git_sha\": \"" + o.git_sha + "\"}";
  std::printf("meta %s\n", meta.c_str());

  OpTally tally;
  std::vector<Metric> metrics;

  Setup setup = set_up(o, w, tally);
  std::vector<SetupTimes> setups{setup.times};
  Runner runner(o, w, *setup.service, tally);

  TracedWindow tw;
  if (o.trace)
    tw = run_traced(runner, w, o);
  else
    end_to_end_metrics(w, runner.run_window(w.sim_chunks, o.seconds), metrics);

  // Correctness: training parameters at the checkpoint must match the
  // recorded digest, or a serial replay of the same batches.
  const std::optional<std::uint64_t> got = runner.checkpoint_digest();
  setup.service.reset();
  if (got) {
    const std::uint64_t want =
        o.expect_digest ? *o.expect_digest : serial_replay_digest(o, w);
    char buf[96];
    std::snprintf(buf, sizeof buf, "params digest %016llx, expected %016llx",
                  static_cast<unsigned long long>(*got),
                  static_cast<unsigned long long>(want));
    if (*got != want) check_failed(buf);
    std::printf("check %s (%s)\n", buf,
                o.expect_digest ? "recorded" : "serial replay");
  }

  // The remaining setups run after peak_rss_mb was read: a process that
  // rebuilt its service would hold allocator arenas a user's never does.
  while (setups.size() < w.setup_reps) setups.push_back(set_up(o, w, tally).times);
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total_s());
  metrics.insert(metrics.begin(),
                 {"setup_s", median(totals), "s", "host", Kind::kEndToEnd});
  if (o.trace)
    per_layer_metrics(w, tw,
                      {median_of(&SetupTimes::generate_s),
                       median_of(&SetupTimes::ctor_s),
                       median_of(&SetupTimes::warmup_s)},
                      metrics);

  const double failed_share =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 0.0;
  metrics.push_back({"failed_share", failed_share, "fraction", "count", Kind::kExtra});
  for (const Metric& m : metrics)
    std::printf("metric %-36s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  if (!o.out_dir.empty()) write_results_file(o, metrics, tally, meta);

  const Kind shown = o.trace ? Kind::kPerLayer : Kind::kEndToEnd;
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.kind != shown) continue;
    line += (first ? "\"" : ", \"") + m.name + "\": " + metric_json(m, false);
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
