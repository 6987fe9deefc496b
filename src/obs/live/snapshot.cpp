#include "obs/live/snapshot.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/live/event_log.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/live/worker_profiler.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gt::obs::live {

// ---- TimeSeriesRing ---------------------------------------------------------

TimeSeriesRing::TimeSeriesRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2)) {
  ring_.resize(capacity_);
}

void TimeSeriesRing::push(SnapshotSample s) {
  if (size_ < capacity_) {
    ring_[(head_ + size_) % capacity_] = std::move(s);
    ++size_;
    return;
  }
  ring_[head_] = std::move(s);
  head_ = (head_ + 1) % capacity_;
}

const SnapshotSample& TimeSeriesRing::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("TimeSeriesRing::at");
  return ring_[(head_ + i) % capacity_];
}

namespace {

const std::uint64_t* find_counter(const SnapshotSample& s,
                                  std::string_view name) {
  const auto it = std::lower_bound(
      s.counters.begin(), s.counters.end(), name,
      [](const auto& kv, std::string_view n) { return kv.first < n; });
  if (it == s.counters.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

TimeSeriesRing::Rate TimeSeriesRing::rate(std::string_view counter) const {
  Rate r;
  if (size_ < 2) return r;
  const SnapshotSample& prev = at(size_ - 2);
  const SnapshotSample& cur = at(size_ - 1);
  const std::uint64_t* a = find_counter(prev, counter);
  const std::uint64_t* b = find_counter(cur, counter);
  if (a == nullptr || b == nullptr) return r;
  // Counters are monotonic; a reset() between samples shows as a smaller
  // value, which we clamp to zero delta rather than a negative rate.
  const double delta =
      *b >= *a ? static_cast<double>(*b - *a) : 0.0;
  const double dt_sec = (cur.ts_ms - prev.ts_ms) / 1e3;
  const double dbatch = static_cast<double>(
      cur.batches >= prev.batches ? cur.batches - prev.batches : 0);
  r.per_sec = dt_sec > 0.0 ? delta / dt_sec : 0.0;
  r.per_batch = dbatch > 0.0 ? delta / dbatch : 0.0;
  r.known = true;
  return r;
}

// ---- TelemetrySnapshotter ---------------------------------------------------

TelemetrySnapshotter::TelemetrySnapshotter(MetricsRegistry& registry,
                                           SnapshotterOptions opt)
    : registry_(registry), opt_(std::move(opt)),
      ring_(std::max<std::size_t>(opt_.window, 2)) {
  if (opt_.interval == 0) opt_.interval = 1;
  if (opt_.keep == 0) opt_.keep = 1;
  std::error_code ec;
  std::filesystem::create_directories(opt_.dir, ec);
  if (ec)
    throw std::runtime_error("telemetry: cannot create snapshot dir '" +
                             opt_.dir + "': " + ec.message());
}

SnapshotSample TelemetrySnapshotter::capture() {
  SnapshotSample s;
  s.seq = seq_;
  s.ts_ms = gt::log_uptime_ms();
  s.batches = ticks_;
  s.counters = registry_.counter_values();
  s.gauges = registry_.gauge_values();
  return s;
}

bool TelemetrySnapshotter::tick() {
  ++ticks_;
  if (ticks_ % opt_.interval != 0) return false;
  return emit(capture());
}

bool TelemetrySnapshotter::emit_now() { return emit(capture()); }

bool TelemetrySnapshotter::emit(const SnapshotSample& cur) {
  ring_.push(cur);
  const std::string slot_path =
      opt_.dir + "/snapshot-" + std::to_string(seq_ % opt_.keep) + ".json";
  {
    std::ofstream f(slot_path, std::ios::trunc);
    if (!f) return false;
    write_snapshot(ring_.newest(), f);
    if (!f) return false;
  }
  // latest.json is written whole then renamed so a concurrent reader
  // (gt_top) never parses a torn file.
  const std::string tmp_path = opt_.dir + "/latest.json.tmp";
  {
    std::ofstream f(tmp_path, std::ios::trunc);
    if (!f) return false;
    write_snapshot(ring_.newest(), f);
    if (!f) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, opt_.dir + "/latest.json", ec);
  if (ec) return false;
  ++seq_;
  ++emitted_;
  if (EventLog::global().armed()) {
    Event ev(Severity::kDebug, "telemetry.snapshot");
    ev.field("seq", cur.seq).field("batches", cur.batches);
    EventLog::global().emit(ev);
  }
  return true;
}

void TelemetrySnapshotter::write_snapshot(const SnapshotSample& cur,
                                          std::ostream& os) const {
  os << "{\n  \"schema_version\": " << kSnapshotSchemaVersion
     << ",\n  \"seq\": " << cur.seq << ",\n  \"ts_ms\": ";
  write_json_number(os, cur.ts_ms);
  os << ",\n  \"batches\": " << cur.batches
     << ",\n  \"interval\": " << opt_.interval;

  os << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : cur.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name) << ':';
    os << v;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : cur.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name) << ':';
    write_json_number(os, v);
  }

  os << "\n  },\n  \"rates\": {";
  first = true;
  for (const auto& [name, v] : cur.counters) {
    (void)v;
    const TimeSeriesRing::Rate r = ring_.rate(name);
    if (!r.known) continue;
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name) << ':';
    os << "{\"per_sec\":";
    write_json_number(os, r.per_sec);
    os << ",\"per_batch\":";
    write_json_number(os, r.per_batch);
    os << "}";
  }

  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const MetricsRegistry::HistogramSummary& h :
       registry_.histogram_summaries()) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, h.name) << ':';
    os << "{\"count\":" << h.count << ",\"mean\":";
    write_json_number(os, h.mean);
    os << ",\"min\":";
    write_json_number(os, h.min);
    os << ",\"max\":";
    write_json_number(os, h.max);
    os << ",\"p50\":";
    write_json_number(os, h.p50);
    os << ",\"p95\":";
    write_json_number(os, h.p95);
    os << ",\"p99\":";
    write_json_number(os, h.p99);
    os << "}";
  }

  // Stage totals + shares. Shares are over the six fine-grained pipeline
  // stages (S/R/K/T/FWP/BWP) — the Fig 12 decomposition — not the two
  // enclosing phases, which would double-count them.
  const WorkerProfiler& prof = WorkerProfiler::global();
  const auto totals = prof.stage_totals();
  double fine_total_ns = 0.0;
  for (std::size_t j = static_cast<std::size_t>(Stage::kSample);
       j < kNumStages; ++j)
    fine_total_ns += static_cast<double>(totals[j]);
  os << "\n  },\n  \"stages\": {";
  for (std::size_t j = 0; j < kNumStages; ++j) {
    os << (j == 0 ? "\n    " : ",\n    ");
    write_json_string(os, std::string(to_string(static_cast<Stage>(j))) +
                              "_ms")
        << ':';
    write_json_number(os, static_cast<double>(totals[j]) / 1e6);
  }
  os << ",\n    \"shares\": {";
  for (std::size_t j = static_cast<std::size_t>(Stage::kSample);
       j < kNumStages; ++j) {
    os << (j == static_cast<std::size_t>(Stage::kSample) ? "" : ", ");
    write_json_string(os, to_string(static_cast<Stage>(j))) << ':';
    write_json_number(os, fine_total_ns > 0.0
                         ? static_cast<double>(totals[j]) / fine_total_ns
                         : 0.0);
  }
  os << "}";

  // Per-worker utilization and skew, merged from the profiler slots.
  const double wall_ns =
      static_cast<double>(prof.wall_since_enable_ns());
  const auto slots = prof.snapshot();
  double busy_sum = 0.0, busy_max = 0.0;
  os << "\n  },\n  \"workers\": [";
  first = true;
  for (const WorkerProfiler::SlotSnapshot& s : slots) {
    const double busy = static_cast<double>(s.busy_ns);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << "{\"slot\":" << s.slot << ",\"busy_ms\":";
    write_json_number(os, busy / 1e6);
    os << ",\"util\":";
    write_json_number(os, wall_ns > 0.0 ? busy / wall_ns : 0.0);
    for (std::size_t j = 0; j < kNumStages; ++j) {
      os << ",";
      write_json_string(os, std::string(to_string(static_cast<Stage>(j))) +
                              "_ms")
        << ':';
      write_json_number(os, static_cast<double>(s.stage_ns[j]) / 1e6);
    }
    os << "}";
  }
  const double busy_mean =
      slots.empty() ? 0.0 : busy_sum / static_cast<double>(slots.size());
  os << "\n  ],\n  \"worker_skew\": ";
  write_json_number(os, busy_mean > 0.0 ? busy_max / busy_mean : 0.0);

  os << ",\n  \"health\": {";
  if (watchdog_ != nullptr) {
    os << "\"state\":\""
       << (watchdog_->stalled() ? "stalled" : "ok")
       << "\",\"heartbeats\":" << watchdog_->heartbeats()
       << ",\"stalls\":" << watchdog_->stalls_detected();
  } else {
    os << "\"state\":\"ok\",\"heartbeats\":0,\"stalls\":0";
  }
  os << "}\n}\n";
}

}  // namespace gt::obs::live
