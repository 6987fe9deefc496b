// bench_diff: compare two bench reports (BENCH_*.json) row by row and
// gate perf regressions.
//
//   $ bench_diff [--threshold=0.05] [--json] baseline.json current.json
//
// An unknown flag, or a threshold (flag or GT_BENCH_DIFF_THRESHOLD) that
// is not a finite number >= 0, exits 2: a NaN threshold would pass every
// row and so silently disable the gate.
// Exit codes: 0 = no regression, 1 = some row regressed past the
// threshold, 2 = bad usage / unreadable input / comparison incomplete (a
// baseline row is missing from the candidate — that is not a measured
// regression but a comparison that never happened, and it fails loudly
// with a per-row diagnostic instead of a partial verdict). The comparison
// itself lives in gt::obs (obs/report.hpp) so tests exercise the exact
// CLI semantics; this file only parses arguments.
//
// On a regression verdict (exit 1), bench_diff attributes the failure: it
// looks for each run's kernel-ledger artifact (a sibling kernels.json, or
// --baseline-kernels=/--current-kernels=) and prints the top kernel
// classes by per-batch latency movement (--top=N, default 3) — the quick
// root cause, with tools/gt_explain for the full breakdown. --json emits
// one machine-readable document (verdict, counts, rows, attribution)
// instead of the text table; exit codes are identical.
//
// A row with a paper target regresses when its measured value moves away
// from the paper value by more than the threshold (relative to |paper|);
// a row without one regresses when the measured value drifts more than
// the threshold from the baseline run. Every bench is deterministic by
// construction, so the default threshold exists to absorb float-format
// round-off, not run-to-run noise.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold=FRACTION] [--json] [--top=N]\n"
               "       [--baseline-kernels=F] [--current-kernels=F]\n"
               "       baseline.json current.json\n"
               "  --threshold=F  max tolerated growth of a row's relative\n"
               "                 deviation (default 0.05, or the\n"
               "                 GT_BENCH_DIFF_THRESHOLD environment "
               "variable)\n"
               "  --json         machine-readable output (same exit codes)\n"
               "  --top=N        kernel classes shown when attributing a\n"
               "                 regression (default 3; 0 disables)\n"
               "  --baseline-kernels=F / --current-kernels=F\n"
               "                 kernel-ledger artifacts for attribution\n"
               "                 (default: kernels.json next to each report)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gt::obs::BenchDiffOptions opt;
  constexpr const char* kThresholdText = "a finite fraction >= 0";
  const gt::FlagSetter threshold = gt::into(&opt.threshold, 0.0);
  const char* env = std::getenv("GT_BENCH_DIFF_THRESHOLD");
  if (env != nullptr && !threshold(env)) {
    std::fprintf(stderr,
                 "bench_diff: GT_BENCH_DIFF_THRESHOLD=%s: expected %s\n", env,
                 kThresholdText);
    return 2;
  }
  bool help = false;
  const gt::Flag flags[] = {
      {"--threshold", threshold, kThresholdText},
      {"--json", &opt.json},
      {"--top", gt::into(&opt.top_kernels), "a kernel-class count >= 0"},
      {"--baseline-kernels", gt::into(&opt.baseline_kernels), "a file path"},
      {"--current-kernels", gt::into(&opt.current_kernels), "a file path"},
      {"--help", &help},
      {"-h", &help},
  };
  const gt::ParsedFlags args =
      gt::parse_flags(std::vector<std::string>(argv + 1, argv + argc), flags);
  if (!args.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n", args.error.c_str());
    return usage(argv[0]);
  }
  if (help) {
    usage(argv[0]);
    return 0;
  }
  if (args.positionals.size() != 2) return usage(argv[0]);
  return gt::obs::run_bench_diff(args.positionals[0], args.positionals[1], opt,
                                 std::cout);
}
