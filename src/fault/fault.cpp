#include "fault/fault.hpp"

#include <optional>

#include "obs/live/event_log.hpp"
#include "util/parse.hpp"

namespace gt::fault {

namespace {

thread_local detail::ThreadState t_state;

std::string describe(Site site, Kind kind, std::uint64_t batch,
                     std::uint32_t coord) {
  std::string s = "injected fault: ";
  s += to_string(site);
  s += "@batch=" + std::to_string(batch);
  if (coord != kAnyCoord) s += ":layer=" + std::to_string(coord);
  switch (kind) {
    case Kind::kTransient: break;
    case Kind::kOom:   s += " (kind=oom)"; break;
    case Kind::kAbort: s += " (kind=abort)"; break;
  }
  return s;
}

[[noreturn]] void bad_spec(std::string_view entry, const std::string& why) {
  throw std::invalid_argument("fault spec: bad entry '" + std::string(entry) +
                              "': " + why);
}

FaultEntry parse_entry(std::string_view entry) {
  const std::size_t at = entry.find('@');
  if (at == std::string_view::npos)
    bad_spec(entry, "expected site@batch=N[:layer=N][:times=N][:kind=K]");
  FaultEntry e;
  if (!parse_site(trim(entry.substr(0, at)), &e.site))
    bad_spec(entry, "unknown site '" + std::string(trim(entry.substr(0, at))) +
                        "'");
  bool have_batch = false;
  std::string_view rest = entry.substr(at + 1);
  while (!rest.empty()) {
    const std::size_t colon = rest.find(':');
    std::string_view part = trim(rest.substr(0, colon));
    rest = colon == std::string_view::npos ? std::string_view{}
                                           : rest.substr(colon + 1);
    if (part.empty()) bad_spec(entry, "empty part");
    if (part == "always") {
      e.times = kForever;
      continue;
    }
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos)
      bad_spec(entry, "expected key=value, got '" + std::string(part) + "'");
    const std::string_view key = part.substr(0, eq);
    const std::string_view value = part.substr(eq + 1);
    // parse_uint rejects a value past 2^64-1 rather than wrapping, which
    // would arm the fault at the wrong batch.
    if (key == "batch") {
      const std::optional<std::uint64_t> n = parse_uint(value);
      if (!n) bad_spec(entry, "batch wants an integer");
      e.batch = *n;
      have_batch = true;
    } else if (key == "layer") {
      const std::optional<std::uint64_t> n =
          parse_uint(value, 0, kAnyCoord - 1);
      if (!n) bad_spec(entry, "layer wants a small integer");
      e.coord = static_cast<std::uint32_t>(*n);
    } else if (key == "times") {
      if (value == "inf") {
        e.times = kForever;
      } else {
        const std::optional<std::uint64_t> n =
            parse_uint(value, 1, kForever - 1);
        if (!n) bad_spec(entry, "times wants a positive integer or 'inf'");
        e.times = static_cast<std::uint32_t>(*n);
      }
    } else if (key == "kind") {
      if (value == "transient")  e.kind = Kind::kTransient;
      else if (value == "oom")   e.kind = Kind::kOom;
      else if (value == "abort") e.kind = Kind::kAbort;
      else bad_spec(entry, "kind wants transient|oom|abort");
    } else {
      bad_spec(entry, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!have_batch) bad_spec(entry, "batch= is required");
  if (e.kind == Kind::kOom && e.site != Site::kGpusimAlloc)
    bad_spec(entry, "kind=oom is only meaningful at gpusim.alloc");
  return e;
}

}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kPreprocSample:  return "preproc.sample";
    case Site::kPreprocReindex: return "preproc.reindex";
    case Site::kGpusimAlloc:    return "gpusim.alloc";
    case Site::kGpusimKernel:   return "gpusim.kernel";
    case Site::kTransfer:       return "transfer";
  }
  return "?";
}

bool parse_site(std::string_view text, Site* out) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const Site s = static_cast<Site>(i);
    if (text == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

InjectedFault::InjectedFault(Site site, Kind kind, std::uint64_t batch,
                             std::uint32_t coord)
    : std::runtime_error(describe(site, kind, batch, coord)),
      site_(site),
      kind_(kind),
      batch_(batch),
      coord_(coord) {}

FaultPlan::FaultPlan(std::vector<FaultEntry> entries)
    : entries_(std::move(entries)) {}

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::vector<FaultEntry> entries;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view entry = trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    entries.push_back(parse_entry(entry));
  }
  return FaultPlan(std::move(entries));
}

bool FaultPlan::empty() const {
  std::lock_guard lock(mu_);
  return entries_.empty();
}

std::size_t FaultPlan::entry_count() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

std::vector<FaultEntry> FaultPlan::entries() const {
  std::lock_guard lock(mu_);
  return entries_;
}

std::uint64_t FaultPlan::injected() const {
  std::lock_guard lock(mu_);
  return injected_;
}

void FaultPlan::rearm() {
  std::lock_guard lock(mu_);
  for (FaultEntry& e : entries_) e.fired = 0;
  injected_ = 0;
}

void FaultPlan::on_check(Site site, std::uint64_t batch, std::uint32_t coord) {
  std::lock_guard lock(mu_);
  for (FaultEntry& e : entries_) {
    if (e.site != site || e.batch != batch) continue;
    if (e.coord != kAnyCoord && e.coord != coord) continue;
    if (e.times != kForever && e.fired >= e.times) continue;
    ++e.fired;
    ++injected_;
    // The injection event is the root of the batch's causal chain in the
    // structured event log: it carries the ambient correlation id the
    // service installed for this attempt, so retry/degraded events for
    // the same batch resolve back to it by cid.
    if (obs::live::EventLog::global().armed()) {
      obs::live::Event ev(obs::live::Severity::kWarn, "fault.inject");
      ev.msg(to_string(site))
          .field("site", to_string(site))
          .field("kind", e.kind == Kind::kTransient ? "transient"
                         : e.kind == Kind::kOom     ? "oom"
                                                    : "abort")
          .field("batch", batch)
          .field("coord", static_cast<std::uint64_t>(coord));
      obs::live::EventLog::global().emit(ev);
    }
    throw InjectedFault(site, e.kind, batch, coord);
  }
}

PlanScope::PlanScope(FaultPlan* plan, std::uint64_t batch) noexcept
    : saved_(t_state) {
  t_state = detail::ThreadState{};
  t_state.plan = plan;
  t_state.batch = batch;
}

PlanScope::~PlanScope() { t_state = saved_; }

bool active() noexcept { return t_state.plan != nullptr; }

void check(Site site, std::uint32_t coord) {
  detail::ThreadState& t = t_state;
  if (t.plan == nullptr) return;
  const std::size_t idx = static_cast<std::size_t>(site);
  const std::uint32_t c =
      coord == kAnyCoord ? t.occurrence[idx]++ : coord;
  t.plan->on_check(site, t.batch, c);
}

}  // namespace gt::fault
