// FaultHarness CLI: sweep the stock fault-injection schedules over the
// serving backends and verify the recovery invariants (bit-identical
// parameters for recoverable schedules, worker-count parity for all).
// Exits nonzero on any violated invariant — CI's chaos gate.
//
//   $ ./tools/fault_harness [--batches=N] [--quick]
//
// --quick trims the sweep to one GT backend and one baseline (the unit
// tests cover the rest); the default runs the full four-backend matrix.
#include <cstdio>
#include <string>
#include <vector>

#include "fault/harness.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  gt::fault::HarnessOptions opts;
  bool quick = false;
  const gt::Flag flags[] = {
      {"--batches", gt::into(&opts.batches, 1), "a batch count >= 1"},
      {"--quick", &quick},
  };
  const gt::ParsedFlags args =
      gt::parse_flags(std::vector<std::string>(argv + 1, argv + argc), flags);
  if (!args.ok() || !args.positionals.empty()) {
    if (!args.ok()) std::fprintf(stderr, "%s\n", args.error.c_str());
    std::fprintf(stderr, "usage: %s [--batches=N] [--quick]\n", argv[0]);
    return 2;
  }
  if (quick) {
    opts.backends = {"DGL", "Prepro-GT"};
    opts.worker_counts = {1, 4};
  }

  const gt::fault::HarnessResult result = gt::fault::run_sweep(opts);

  gt::Table table({"backend", "workers", "schedule", "injected", "retries",
                   "degraded", "oom", "params", "reports", "status"});
  for (const gt::fault::HarnessRun& r : result.runs) {
    table.add_row({r.backend, std::to_string(r.workers),
                   r.fault_spec.empty() ? "(fault-free)" : r.fault_spec,
                   std::to_string(r.injected), std::to_string(r.retries),
                   std::to_string(r.degraded), std::to_string(r.oom),
                   r.params_match ? "match" : "MISMATCH",
                   r.reports_match ? "match" : "MISMATCH",
                   r.ok ? "ok" : ("FAIL: " + r.why)});
  }
  table.print();
  std::printf("\n%zu runs, %s\n", result.runs.size(),
              result.all_ok ? "all invariants hold" : "INVARIANT VIOLATED");
  return result.all_ok ? 0 : 1;
}
