#include "obs/analysis.hpp"

#include <algorithm>
#include <string_view>

namespace gt::obs {

std::vector<Interval> merge_intervals(std::vector<Interval> xs) {
  std::erase_if(xs, [](const Interval& x) { return x.end <= x.begin; });
  std::sort(xs.begin(), xs.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& x : xs) {
    if (!out.empty() && x.begin <= out.back().end)
      out.back().end = std::max(out.back().end, x.end);
    else
      out.push_back(x);
  }
  return out;
}

double interval_measure(const std::vector<Interval>& xs) {
  double total = 0.0;
  for (const Interval& x : xs) total += x.end - x.begin;
  return total;
}

double interval_intersection(const std::vector<Interval>& a,
                             const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].begin, b[j].begin);
    const double hi = std::min(a[i].end, b[j].end);
    if (hi > lo) total += hi - lo;
    if (a[i].end < b[j].end)
      ++i;
    else
      ++j;
  }
  return total;
}

namespace {

int stage_index(std::string_view cat) {
  for (int i = 0; i < kNumPreprocStages; ++i)
    if (cat == kPreprocStageNames[i]) return i;
  return -1;
}

}  // namespace

TraceAnalysis TraceAnalysis::from_events(
    const std::vector<TraceEvent>& events) {
  TraceAnalysis a;
  std::vector<Interval> all, preproc, gpu, pcie;
  double t_min = 0.0, t_max = 0.0;
  for (const TraceEvent& e : events) {
    if (e.pid != kSimPid) continue;  // wall spans measure host code
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    if (a.sim_event_count == 0) {
      t_min = iv.begin;
      t_max = iv.end;
    } else {
      t_min = std::min(t_min, iv.begin);
      t_max = std::max(t_max, iv.end);
    }
    ++a.sim_event_count;
    all.push_back(iv);
    if (e.tid == kSimTidPcie) pcie.push_back(iv);
    if (e.tid == kSimTidGpu) {
      // Per-kernel detail events duplicate the FWP/BWP phase spans on the
      // same lane; stage sums count only the phase spans, busy unions
      // absorb the duplication.
      gpu.push_back(iv);
      if (e.cat == "FWP") a.fwp_us += e.dur_us;
      if (e.cat == "BWP") a.bwp_us += e.dur_us;
      continue;
    }
    const int stage = stage_index(e.cat);
    if (stage >= 0) {
      a.stage_us[stage] += e.dur_us;
      preproc.push_back(iv);
    }
  }
  if (a.sim_event_count == 0) return a;

  a.span_us = t_max - t_min;
  a.critical_path_us = interval_measure(merge_intervals(std::move(all)));

  double busy_total = a.fwp_us + a.bwp_us;
  for (double us : a.stage_us) busy_total += us;
  if (busy_total > 0.0) {
    for (int i = 0; i < kNumPreprocStages; ++i)
      a.stage_share[i] = a.stage_us[i] / busy_total;
    a.fwp_share = a.fwp_us / busy_total;
    a.bwp_share = a.bwp_us / busy_total;
  }

  const auto preproc_union = merge_intervals(std::move(preproc));
  const auto gpu_union = merge_intervals(std::move(gpu));
  a.preproc_busy_us = interval_measure(preproc_union);
  a.gpu_busy_us = interval_measure(gpu_union);
  a.overlap_us = interval_intersection(preproc_union, gpu_union);
  // Phases that merely touch (FWP starts exactly where preprocessing
  // ends) can intersect by a few ulps; report that as zero overlap.
  if (a.overlap_us < 1e-9 * std::max(1.0, a.span_us)) a.overlap_us = 0.0;
  const double shorter = std::min(a.preproc_busy_us, a.gpu_busy_us);
  if (shorter > 0.0) a.overlap_efficiency = a.overlap_us / shorter;

  a.pcie_busy_us = interval_measure(merge_intervals(std::move(pcie)));
  if (a.span_us > 0.0)
    a.pcie_idle_fraction = 1.0 - a.pcie_busy_us / a.span_us;
  return a;
}

TraceAnalysis TraceAnalysis::from_tracer(const Tracer& tracer) {
  return from_events(tracer.snapshot());
}

void TraceAnalysis::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ", in2 = pad + "    ";
  os << "{\n" << in1 << "\"critical_path_us\": ";
  write_json_number(os, critical_path_us);
  os << ",\n" << in1 << "\"overlap\": {\n";
  os << in2 << "\"efficiency\": ";
  write_json_number(os, overlap_efficiency);
  os << ",\n" << in2 << "\"gpu_busy_us\": ";
  write_json_number(os, gpu_busy_us);
  os << ",\n" << in2 << "\"overlap_us\": ";
  write_json_number(os, overlap_us);
  os << ",\n" << in2 << "\"preproc_busy_us\": ";
  write_json_number(os, preproc_busy_us);
  os << "\n" << in1 << "},\n";
  os << in1 << "\"pcie\": {\n";
  os << in2 << "\"busy_us\": ";
  write_json_number(os, pcie_busy_us);
  os << ",\n" << in2 << "\"idle_fraction\": ";
  write_json_number(os, pcie_idle_fraction);
  os << "\n" << in1 << "},\n";
  os << in1 << "\"sim_event_count\": " << sim_event_count << ",\n";
  os << in1 << "\"span_us\": ";
  write_json_number(os, span_us);
  // Both stage maps list bwp/fwp alongside the four preprocessing stages,
  // keys in sorted order (bwp, fwp, lookup, reindex, sampling, transfer).
  const std::pair<const char*, double> stage_pairs_us[] = {
      {"bwp", bwp_us},          {"fwp", fwp_us},
      {"lookup", stage_us[2]},  {"reindex", stage_us[1]},
      {"sampling", stage_us[0]}, {"transfer", stage_us[3]}};
  const std::pair<const char*, double> stage_pairs_share[] = {
      {"bwp", bwp_share},          {"fwp", fwp_share},
      {"lookup", stage_share[2]},  {"reindex", stage_share[1]},
      {"sampling", stage_share[0]}, {"transfer", stage_share[3]}};
  auto stage_map = [&](const char* key, const auto& pairs) {
    os << ",\n" << in1 << "\"" << key << "\": {";
    bool first = true;
    for (const auto& [name, v] : pairs) {
      os << (first ? "\n" : ",\n") << in2 << "\"" << name << "\": ";
      first = false;
      write_json_number(os, v);
    }
    os << "\n" << in1 << "}";
  };
  stage_map("stage_share", stage_pairs_share);
  stage_map("stage_us", stage_pairs_us);
  os << "\n" << pad << "}";
}

}  // namespace gt::obs
