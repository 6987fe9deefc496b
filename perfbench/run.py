#!/usr/bin/env python3
"""Benchmark entry point: build gt_perfbench from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out DIR] [--workers N] [--compute-threads N]
                             [--scale full|tiny]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and the result files and Chrome trace to --out
(default .bench_out). The last line of stdout is the result object; every
other line is for people. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42  # digests.json records it; 4242 is held out (README.md)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure once, then (re)build gt_perfbench; returns the binary path.

    A lock serializes concurrent runs of the same checkout. Build output
    goes to stderr so stdout keeps only the run's own lines.
    """
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
                subprocess.run(["cmake", "-S", HERE, "-B", out,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr, check=True)
            subprocess.run(["cmake", "--build", out, "--target", "gt_perfbench",
                            "-j", str(os.cpu_count() or 1)],
                           stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}")
    return os.path.join(out, "gt_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def recorded_digest(workload, seed, scale):
    """Parameter digest recorded for (workload, seed), or None."""
    if scale != "full":
        return None
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(str(seed), {}).get(workload)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    p.add_argument("--workers", type=int)
    p.add_argument("--compute-threads", type=int)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    a = p.parse_args()

    cmd = [build(), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--out", a.out,
           "--scale", a.scale, "--git-sha", git_sha()]
    if a.workers is not None:
        cmd += ["--workers", str(a.workers)]
    if a.compute_threads is not None:
        cmd += ["--compute-threads", str(a.compute_threads)]
    digest = recorded_digest(a.workload, a.seed, a.scale)
    if digest:
        cmd += ["--expect-digest", digest]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
