#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the univsa library from src/ plus the measuring binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The last line of
stdout is the binary's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads and metrics are described in perfbench/NOTES.md and
BENCHMARK.json. Exits non-zero, without a result line, when the sources
are missing, the build fails, or the run fails or times out; when an
answer differs from the reference it prints the result line (with
"correct": false) and exits non-zero.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-isolet", "batch-isolet-b32")
# A run must end within 180 s; the first one in a checkout also builds.
RUN_LIMIT_S = 170.0
FIRST_RUN_LIMIT_S = 880.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, deadline):
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("univsa sources (src/CMakeLists.txt) not found "
                           "next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=sys.stderr,
                timeout=max(1.0, deadline - time.monotonic()))
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out_dir, "perfbench")


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    out_dir = build_dir()
    first = not os.path.exists(os.path.join(out_dir, "perfbench"))
    deadline = start + (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S)
    try:
        binary = build(out_dir, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", records]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    # A parity mismatch still reports (correct: false), then fails.
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
