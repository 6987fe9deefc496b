// Command-line GNN training service: pick any catalog dataset, model, and
// framework backend and watch the per-batch reports — the "adopt this
// library" entry point.
//
//   $ ./examples/service_cli [dataset] [model] [framework] [batches]
//   $ ./examples/service_cli wiki-talk NGCF Prepro-GT 12
//
// Every flag below is one row of the flag table in main() and takes
// --flag=V or --flag V. An unknown flag, a malformed or out-of-range
// value, or a flag whose partner is missing exits 2 with a diagnostic
// naming the flag, before anything is printed (DESIGN.md §17).
//
// Concurrent serving:
//   --workers=N  drains the batch queue with N worker contexts (1..1024):
//                preprocessing of up to N batches overlaps on a thread
//                pool while training executes strictly in batch order.
//                Reports are bit-identical to --workers=1.
//   --compute-threads=N (GT_COMPUTE_THREADS) host threads for the compute
//                engine (1..64): simulated-device kernels run their per-SM
//                block sequences on N pool workers and the dense tensor ops
//                parallelize over row tiles. Reports (simulated times,
//                losses, gradients) are bit-identical for every N — only
//                host wall-clock changes.
//   --batches=M  explicit batch count (wins over the positional form).
//
// Modeled multi-device execution (DESIGN.md §14):
//   --devices=N  decompose each batch across N (1..1024) simulated devices
//                behind a modeled ring interconnect. Trained parameters and
//                losses stay bit-identical to --devices=1; the timeline
//                becomes a per-device makespan merge and the report gains
//                comm.* collective costs. Requires a GraphTensor backend.
//   --shard=S    decomposition strategy: "range" (destination-vertex range
//                sharding with halo all-gathers) or "tp" (NeutronTP-style
//                tensor parallelism over the feature dimension, one
//                all-reduce per layer boundary). Only valid together with
//                --devices > 1; defaults to range.
//
// Embedding cache hierarchy (DESIGN.md §15):
//   --cache-budget=B   device bytes for the embedding cache (suffixes
//                K/M/G, e.g. --cache-budget=8M; a finite count below
//                2^64). 0 (default) = no cache.
//                Re-prices the K/T preprocessing stages only: trained
//                parameters and losses are bit-identical to a cache-off
//                run for every policy. Requires a GraphTensor backend.
//   --cache-policy=P   static (degree-pinned hub vertices, the default),
//                lru / lfu (fully dynamic, batch-index virtual-time
//                eviction), or tiered (budget split static + LRU).
//   --prefetch   sampler-lookahead warm-up of the dynamic tier: the
//                prepared next batch's vid_order is fetched under the
//                current batch's compute window and priced as overlapped
//                transfer. Needs a dynamic tier (lru/lfu/tiered).
//
// Online request serving (DESIGN.md §16):
//   --serve      switch from epoch training to the online serving front
//                end: a seeded open-loop arrival process feeds a bounded
//                request queue, SLO-aware admission sheds predicted
//                deadline misses at the door, and the dynamic batcher
//                coalesces admitted requests into forward-only batches on
//                the same worker-context ring. Prints the outcome table
//                plus p50/p95/p99 request latency, goodput, and shed rate.
//   --arrival=A  poisson (default) | bursty | diurnal arrival process.
//   --rate=R     mean arrival rate in requests per virtual second (finite,
//                > 0).
//   --slo-ticks=T  deadline in virtual ticks (1 tick = 1 simulated us);
//                0 (default) disables shedding.
//   --queue-depth=N  bounded request-queue capacity (>= 1, default 64).
//   --requests=N     arrivals to generate (>= 1, default 64).
//   --max-batch=N    requests coalesced per serving batch (>= 1,
//                default 8).
//   --max-wait-ticks=T  oldest-request wait that forces a batch closed
//                (default 2000).
//   --verts-per-request=N  dst vertices each request asks for (1..65535,
//                default 32).
//   All serving flags require --serve; the replayed decision stream is
//   bit-identical across --workers values, including under --fault-spec.
//
// Fault injection / chaos serving (DESIGN.md §11):
//   --fault-spec=SPEC (GT_FAULT_SPEC) arms a gt::fault schedule, e.g.
//                --fault-spec="gpusim.alloc@batch=3;preproc.sample@batch=7"
//                Transient faults are retried with virtual backoff; a
//                batch past the retry budget shows as "degraded" in the
//                table and the epoch keeps going.
//   --max-retries=N retry budget per batch (default 3).
//   Chaos example:
//     ./examples/service_cli products GCN Prepro-GT 8 --workers=4
//         --fault-spec="preproc.sample@batch=2;gpusim.kernel@batch=5:always"
//
// Observability flags (anywhere on the command line); each flag also
// honors its GT_* environment-variable equivalent, for parity with the
// bench binaries' env-driven hook (the flag wins when both are set):
//   --trace-out=trace.json     (GT_TRACE_OUT) Chrome trace-event JSON of
//                              the run: the simulated S/R/K/T + FWP/BWP
//                              batch timeline (load in chrome://tracing
//                              or Perfetto) plus wall-clock host spans.
//   --metrics-out=metrics.json (GT_METRICS_OUT) Dump of the gt::obs
//                              metrics registry (hash contention, DKP
//                              decisions, kernel-category timings, PCIe
//                              bytes, per-epoch loss, ...).
//   --bench-out=bench.json     (GT_BENCH_OUT) Structured bench report:
//                              per-run latency/loss rows plus the
//                              trace-derived critical-path / stage-share /
//                              overlap analysis (see obs/report.hpp).
//   --kernel-ledger-out=kernels.json (GT_KERNEL_LEDGER_OUT) Kernel-level
//                              attribution ledger (DESIGN.md §13):
//                              per-kernel-class latency sums, exact
//                              stage-identity totals, and the DKP
//                              cost-model prediction join. Feed two of
//                              these to tools/gt_explain to attribute an
//                              end-to-end latency delta.
//
// Live telemetry (DESIGN.md §12); tail with tools/gt_top:
//   --telemetry-out=DIR        (GT_TELEMETRY_OUT) arm the live stack:
//                              rotating snapshot-<k>.json + latest.json
//                              time-series snapshots, events.jsonl
//                              structured event log (severity, monotonic
//                              ts, thread id, correlation id — one cid per
//                              batch ties fault.inject -> service.retry ->
//                              service.degraded together), per-worker
//                              stage profiler, crash-safe flush.
//   --telemetry-interval=N     (GT_TELEMETRY_INTERVAL) batches between
//                              snapshots (>= 1, default 1).
//   --watchdog-stall-ms=M      (GT_TELEMETRY_WATCHDOG_MS) declare a stall
//                              after M ms without batch progress
//                              (watchdog.stall/.recovered events; 0 = off).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/graphtensor.hpp"
#include "obs/metrics.hpp"
#include "sampling/cache_hierarchy.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

/// Ceiling for --workers and --devices: each one costs a thread or a
/// simulated device, so a typo'd count must not exhaust the host.
constexpr std::uint64_t kMaxFanOut = 1024;
/// Batch counts stay within int: the bench report records them as one.
constexpr std::uint64_t kMaxBatches = 2147483647;

gt::models::GnnModelConfig model_by_name(const std::string& name,
                                         const gt::DatasetSpec& spec) {
  if (name == "GCN")
    return gt::models::gcn(spec.hidden_dim, spec.output_dim);
  if (name == "NGCF")
    return gt::models::ngcf(spec.hidden_dim, spec.output_dim);
  if (name == "GraphSAGE")
    return gt::models::graphsage_sum(spec.hidden_dim, spec.output_dim);
  if (name == "GAT")
    return gt::models::gat_like(spec.hidden_dim, spec.output_dim);
  std::fprintf(stderr, "unknown model '%s' (GCN|NGCF|GraphSAGE|GAT)\n",
               name.c_str());
  std::exit(2);
}

/// Flag value, falling back to the GT_* environment equivalent.
std::string out_path(const std::string& flag_value, const char* env_name) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

/// Parse a byte count with an optional K/M/G suffix, itself optionally
/// followed by B ("8M", "512k", "1GB"). False on anything else, and on a
/// count that does not fit in size_t.
bool parse_byte_size(std::string_view text, std::size_t* out) {
  constexpr std::string_view kUnits = "kKmMgG";  // 1024^(index / 2 + 1)
  const bool b_suffix = text.ends_with('B') || text.ends_with('b');
  if (b_suffix) text.remove_suffix(1);
  const std::size_t unit =
      text.empty() ? std::string_view::npos : kUnits.find(text.back());
  if (unit != std::string_view::npos) text.remove_suffix(1);
  else if (b_suffix) return false;  // "8B" has no unit for the B to follow
  const double scale =
      unit == std::string_view::npos ? 1.0 : std::pow(1024.0, unit / 2 + 1);
  const std::optional<double> value = gt::parse_real(text, 0.0);
  if (!value || *value * scale >= 0x1p64) return false;  // 2^64: size_t max+1
  *out = static_cast<std::size_t>(*value * scale);
  return true;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gt::ServiceOptions options;
  // Flags override the GT_TELEMETRY_* environment (same precedence as the
  // other observability outputs).
  options.telemetry = gt::obs::live::TelemetryOptions::from_env();
  gt::serving::ServeConfig serve_config;
  std::string trace_flag, metrics_flag, bench_flag;
  std::string telemetry_flag;  // empty = GT_TELEMETRY_OUT / telemetry off
  std::size_t batches = 8;
  bool serve_mode = false;
  const gt::Flag flags[] = {
      {"--trace-out", gt::into(&trace_flag), "a file path"},
      {"--metrics-out", gt::into(&metrics_flag), "a file path"},
      {"--bench-out", gt::into(&bench_flag), "a file path"},
      // The service falls back to GT_KERNEL_LEDGER_OUT and GT_FAULT_SPEC
      // itself when these two are empty.
      {"--kernel-ledger-out", gt::into(&options.kernel_ledger_out),
       "a file path"},
      {"--fault-spec", gt::into(&options.fault_spec), "a fault schedule"},
      {"--workers", gt::into(&options.workers, 1, kMaxFanOut),
       "a worker count in [1, 1024]"},
      {"--devices", gt::into(&options.devices, 1, kMaxFanOut),
       "a device count in [1, 1024]"},
      {"--shard",
       gt::into(&options.shard, gt::frameworks::parse_shard_strategy),
       "range or tp"},
      {"--cache-budget",
       [&](std::string_view v) {
         return parse_byte_size(v, &options.cache_budget_bytes);
       },
       "a byte count with an optional K/M/G suffix (e.g. --cache-budget=8M)"},
      {"--cache-policy",
       gt::into(&options.cache_policy, gt::sampling::parse_cache_policy),
       "static|lru|lfu|tiered"},
      {"--prefetch", &options.cache_prefetch},
      {"--compute-threads",
       gt::into(&options.compute_threads, 1, gt::kMaxComputeThreads),
       "a thread count in [1, 64]"},
      {"--batches", gt::into(&batches, 0, kMaxBatches),
       "a batch count in [0, 2147483647]"},
      {"--max-retries", gt::into(&options.max_retries),
       "a retry count >= 0"},
      {"--telemetry-out", gt::into(&telemetry_flag), "a directory"},
      {"--telemetry-interval", gt::into(&options.telemetry.interval, 1),
       "a batch count >= 1"},
      {"--watchdog-stall-ms", gt::into(&options.telemetry.watchdog_stall_ms),
       "milliseconds >= 0 (0 = off)"},
      {"--serve", &serve_mode},
      {"--arrival",
       gt::into(&serve_config.arrival.kind, gt::serving::parse_arrival_kind),
       "poisson|bursty|diurnal"},
      {"--rate",
       gt::into(&serve_config.arrival.rate_rps,
                std::numeric_limits<double>::denorm_min()),
       "a positive arrival rate in requests per virtual second"},
      {"--slo-ticks", gt::into(&serve_config.slo_ticks),
       "a tick count >= 0 (0 = no shedding)"},
      {"--queue-depth", gt::into(&serve_config.queue_depth, 1),
       "an integer >= 1 (queue capacity must be >= 1)"},
      {"--requests", gt::into(&serve_config.requests, 1),
       "a request count >= 1"},
      {"--max-batch", gt::into(&serve_config.batch.max_batch_requests, 1),
       "a request count >= 1"},
      {"--max-wait-ticks", gt::into(&serve_config.batch.max_wait_ticks),
       "a tick count >= 0"},
      {"--verts-per-request",
       gt::into(&serve_config.vertices_per_request, 1, 0xffff),
       "a vertex count in [1, 65535]"},
  };
  const gt::ParsedFlags args =
      gt::parse_flags(std::vector<std::string>(argv + 1, argv + argc), flags);
  if (!args.ok()) return fail(args.error);
  const std::vector<std::string>& positional = args.positionals;
  if (positional.size() > 3 && !args.has("--batches")) {
    const std::optional<std::uint64_t> n =
        gt::parse_uint(positional[3], 0, kMaxBatches);
    if (!n)
      return fail("batches=" + positional[3] +
                  ": expected a batch count in [0, 2147483647]");
    batches = *n;
  }
  // Cross-flag rules: a flag whose partner is missing would silently do
  // nothing, which is almost certainly a typo'd invocation.
  if (args.has("--shard") && options.devices <= 1)
    return fail(std::string("--shard=") +
                gt::frameworks::to_string(options.shard) +
                " requires --devices > 1 (sharding a single device is a "
                "no-op; pass --devices=N to enable it)");
  if ((args.has("--cache-policy") || options.cache_prefetch) &&
      options.cache_budget_bytes == 0)
    return fail(std::string(args.has("--cache-policy") ? "--cache-policy"
                                                       : "--prefetch") +
                " requires a positive --cache-budget (the embedding cache "
                "is off without a byte budget)");
  if (!serve_mode)
    for (const char* name :
         {"--arrival", "--rate", "--slo-ticks", "--queue-depth", "--requests",
          "--max-batch", "--max-wait-ticks", "--verts-per-request"})
      if (args.has(name))
        return fail(std::string(name) +
                    " requires --serve (online serving flags do nothing in "
                    "training mode)");
  serve_config.arrival.seed = 42;  // matches the dataset seed below
  if (!telemetry_flag.empty()) options.telemetry.out_dir = telemetry_flag;
  const std::string trace_out = out_path(trace_flag, "GT_TRACE_OUT");
  const std::string metrics_out = out_path(metrics_flag, "GT_METRICS_OUT");
  const std::string bench_out = out_path(bench_flag, "GT_BENCH_OUT");
  const std::string dataset_name =
      positional.size() > 0 ? positional[0] : "products";
  const std::string model_name =
      positional.size() > 1 ? positional[1] : "GCN";
  const std::string framework =
      positional.size() > 2 ? positional[2] : "Prepro-GT";

  // The bench report embeds trace-derived analysis, so it needs spans too.
  if (!trace_out.empty() || !bench_out.empty())
    gt::obs::Tracer::global().enable(true);

  const gt::DatasetSpec* spec = nullptr;
  try {
    spec = &gt::find_spec(dataset_name);
  } catch (const std::out_of_range& e) {
    return fail(e.what());
  }
  // Both names are checked before the (expensive) dataset generation.
  gt::models::GnnModelConfig model = model_by_name(model_name, *spec);
  gt::Dataset data = gt::generate(*spec, 42);

  options.framework = framework;
  options.learning_rate = 0.1f;
  std::unique_ptr<gt::GnnService> service_ptr;
  try {
    service_ptr = std::make_unique<gt::GnnService>(std::move(data), model,
                                                   options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  gt::GnnService& service = *service_ptr;
  gt::obs::BenchReporter& bench = gt::obs::BenchReporter::global();
  const auto bench_row = [&](const char* metric, const char* unit,
                             double measured) {
    gt::obs::BenchRow row;
    row.metric = metric;
    row.dataset = dataset_name;
    row.framework = framework;
    row.unit = unit;
    row.measured = measured;
    bench.add_row(row);
  };
  // Both modes end alike: point at the telemetry, then write each
  // requested artifact (each mode adds its bench rows beforehand).
  const auto finish = [&](const char* trace_hint) {
    if (service.telemetry() != nullptr)
      std::printf("telemetry in %s (snapshots + events.jsonl; tail with "
                  "tools/gt_top)\n",
                  service.telemetry()->options().out_dir.c_str());
    if (!trace_out.empty()) {
      if (gt::obs::Tracer::global().write_chrome_trace_file(trace_out))
        std::printf("trace written to %s%s\n", trace_out.c_str(), trace_hint);
      else
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      if (gt::obs::metrics().write_json_file(metrics_out))
        std::printf("metrics written to %s\n", metrics_out.c_str());
      else
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_out.c_str());
    }
    if (!bench_out.empty()) {
      bench.set_binary("service_cli");
      if (bench.write_json_file(bench_out))
        std::printf("bench report written to %s\n", bench_out.c_str());
      else
        std::fprintf(stderr, "failed to write bench report to %s\n",
                     bench_out.c_str());
    }
    return 0;
  };

  if (serve_mode) {
    std::printf(
        "serving %s on %s via %s: %zu requests, %s arrivals @ %.1f rps, "
        "slo %llu ticks, queue %zu, batch <= %zu, %zu worker%s\n\n",
        model_name.c_str(), dataset_name.c_str(), framework.c_str(),
        serve_config.requests,
        gt::serving::to_string(serve_config.arrival.kind),
        serve_config.arrival.rate_rps,
        static_cast<unsigned long long>(serve_config.slo_ticks),
        serve_config.queue_depth, serve_config.batch.max_batch_requests,
        options.workers, options.workers == 1 ? "" : "s");
    gt::serving::ServeReport rep;
    try {
      rep = service.serve(serve_config);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    gt::Table table({"outcome", "requests", "share"});
    const auto share = [&](std::uint64_t n) {
      return rep.arrived == 0
                 ? std::string("-")
                 : gt::Table::fmt(100.0 * static_cast<double>(n) /
                                      static_cast<double>(rep.arrived),
                                  1) + "%";
    };
    table.add_row({"completed", std::to_string(rep.completed),
                   share(rep.completed)});
    table.add_row({"shed (slo)", std::to_string(rep.shed_slo),
                   share(rep.shed_slo)});
    table.add_row({"shed (queue full)", std::to_string(rep.shed_queue_full),
                   share(rep.shed_queue_full)});
    table.add_row({"degraded", std::to_string(rep.degraded),
                   share(rep.degraded)});
    table.print();
    std::printf(
        "\nrequest latency p50/p95/p99: %.0f / %.0f / %.0f ticks\n"
        "goodput: %.1f rps (%llu of %llu requests within SLO)\n"
        "shed rate: %.1f%%  |  %llu batches, mean fill %.2f, span %llu "
        "ticks\n",
        rep.p50_latency_ticks, rep.p95_latency_ticks, rep.p99_latency_ticks,
        rep.goodput_rps,
        static_cast<unsigned long long>(rep.goodput_requests),
        static_cast<unsigned long long>(rep.arrived),
        100.0 * rep.shed_rate(),
        static_cast<unsigned long long>(rep.batches), rep.mean_batch_fill,
        static_cast<unsigned long long>(rep.span_ticks));
    if (!bench_out.empty()) {
      bench.set_iterations(static_cast<int>(rep.batches));
      bench.set_context("service_cli --serve",
                        model_name + " on " + dataset_name + " via " +
                            framework + ", " +
                            gt::serving::to_string(serve_config.arrival.kind) +
                            " arrivals");
      bench_row("p50 request latency", "ticks", rep.p50_latency_ticks);
      bench_row("p95 request latency", "ticks", rep.p95_latency_ticks);
      bench_row("p99 request latency", "ticks", rep.p99_latency_ticks);
      bench_row("goodput", "rps", rep.goodput_rps);
      bench_row("shed rate", "fraction", rep.shed_rate());
      bench_row("requests completed", "count", rep.completed);
      bench_row("requests shed", "count", rep.shed());
      bench_row("requests degraded", "count", rep.degraded);
      bench_row("serving batches", "count", rep.batches);
      bench_row("mean batch fill", "fraction", rep.mean_batch_fill);
    }
    return finish("");
  }

  std::printf("training %s on %s via %s (%zu batches of %zu, %zu worker%s)\n",
              model_name.c_str(), dataset_name.c_str(), framework.c_str(),
              batches, options.batch_size, options.workers,
              options.workers == 1 ? "" : "s");
  if (options.devices > 1)
    std::printf("modeled multi-device: %zu devices, %s sharding\n",
                options.devices,
                gt::frameworks::to_string(
                    options.shard == gt::frameworks::ShardStrategy::kNone
                        ? gt::frameworks::ShardStrategy::kRange
                        : options.shard));
  if (options.cache_budget_bytes > 0)
    std::printf("embedding cache: %zu bytes, %s policy%s\n",
                options.cache_budget_bytes,
                gt::sampling::to_string(options.cache_policy),
                options.cache_prefetch ? ", prefetch on" : "");
  std::printf("\n");

  gt::Table table({"batch", "loss", "kernel us", "preproc us", "e2e us",
                   "peak mem", "arena peak", "placement L0"});
  std::vector<double> e2e_us, losses, arena_peaks, arena_allocs;
  std::vector<double> host_prep_us, host_exec_us;
  std::vector<double> group_makespans, comm_us;
  double comm_bytes = 0.0, comm_steps = 0.0, collectives = 0.0;
  const std::vector<gt::frameworks::RunReport> reports =
      service.train_batches(batches);
  std::size_t degraded_batches = 0;
  std::uint64_t recovery_retries = 0;
  for (std::size_t b = 0; b < reports.size(); ++b) {
    const gt::frameworks::RunReport& r = reports[b];
    recovery_retries += r.retries;
    if (r.failed) {
      ++degraded_batches;
      table.add_row({std::to_string(b), "degraded: " + r.failed_reason});
      continue;  // the service already moved on; so does the table
    }
    if (r.oom) {
      table.add_row({std::to_string(b), "OOM: " + r.oom_what});
      break;
    }
    e2e_us.push_back(r.end_to_end_us);
    losses.push_back(r.loss);
    arena_peaks.push_back(static_cast<double>(r.arena_peak_bytes));
    arena_allocs.push_back(static_cast<double>(r.arena_allocations));
    host_prep_us.push_back(r.host_prepare_us);
    host_exec_us.push_back(r.host_execute_us);
    if (r.devices > 1) {
      group_makespans.push_back(r.group_makespan_us);
      comm_us.push_back(r.comm_us);
      comm_bytes += static_cast<double>(r.comm_bytes);
      comm_steps += static_cast<double>(r.comm_steps);
      collectives += static_cast<double>(r.collectives);
    }
    table.add_row({std::to_string(b), gt::Table::fmt(r.loss, 4),
                   gt::Table::fmt(r.kernel_total_us, 1),
                   gt::Table::fmt(r.preproc_makespan_us, 1),
                   gt::Table::fmt(r.end_to_end_us, 1),
                   gt::Table::fmt_bytes(r.peak_memory_bytes),
                   gt::Table::fmt_bytes(r.arena_peak_bytes),
                   r.layer_comb_first_fwd[0] ? "comb-first" : "agg-first"});
  }
  table.print();
  const double accuracy = service.evaluate(2);
  std::printf("\nheld-out accuracy: %.1f%% (chance %.1f%%)\n",
              100.0 * accuracy, 100.0 / model.output_dim);

  if (!bench_out.empty()) {
    bench.set_iterations(static_cast<int>(batches));
    bench.set_context("service_cli",
                      model_name + " on " + dataset_name + " via " + framework);
    bench_row("mean batch e2e", "us", gt::mean(e2e_us));
    bench_row("final batch loss", "loss", losses.empty() ? 0.0 : losses.back());
    bench_row("held-out accuracy", "fraction", accuracy);
    bench_row("arena peak", "bytes",
              arena_peaks.empty() ? 0.0
                                  : *std::max_element(arena_peaks.begin(),
                                                      arena_peaks.end()));
    bench_row("arena allocations per batch", "count", gt::mean(arena_allocs));
    // Real host time (steady_clock), not simulated: varies with machine
    // load and --compute-threads, unlike every row above.
    bench_row("mean host prepare wall", "us", gt::mean(host_prep_us));
    bench_row("mean host execute wall", "us", gt::mean(host_exec_us));
    bench_row("degraded batches", "count", degraded_batches);
    bench_row("recovery retries", "count", recovery_retries);
    if (!group_makespans.empty()) {
      // Multi-device rows: the modeled group timeline and the collective
      // traffic it absorbed (DESIGN.md §14).
      bench_row("devices", "count", options.devices);
      bench_row("mean group makespan", "us", gt::mean(group_makespans));
      bench_row("mean collective comm", "us", gt::mean(comm_us));
      bench_row("collective wire bytes", "bytes", comm_bytes);
      bench_row("collective steps", "count", comm_steps);
      bench_row("collectives priced", "count", collectives);
    }
    if (options.cache_budget_bytes > 0) {
      // Embedding cache rows (DESIGN.md §15), read back from the
      // committed per-tier counters in the metrics registry.
      gt::obs::MetricsRegistry& m = gt::obs::metrics();
      bench_row("cache hit rate", "fraction",
                m.gauge("embedding_cache.hit_rate").value());
      const auto count = [&m](const char* name) {
        return static_cast<double>(m.counter(name).value());
      };
      bench_row("cache static hits", "count", count("cache.static.hits"));
      bench_row("cache dynamic hits", "count", count("cache.dynamic.hits"));
      bench_row("cache prefetch hits", "count", count("cache.prefetch.hits"));
      bench_row("cache misses", "count", count("cache.misses"));
      bench_row("cache evictions", "count", count("cache.evictions"));
      bench_row("cache ring chunks", "count", count("cache.ring.chunks"));
    }
  }
  return finish(" (load in chrome://tracing)");
}
