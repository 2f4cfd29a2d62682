#!/usr/bin/env python3
"""Steadiness runner for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--save FILE] [--compare FIRST.json]

Runs perfbench/run.py --trace 0 `runs` times per workload, each with its
own seed, and prints for every end-to-end metric of BENCHMARK.json the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, against
the metric's bound. A spread under a third of the bound is "steady",
one over the bound fails the check.

--save writes the raw values; --compare FIRST.json is the two-runs
acceptance check: every metric's median in this set must not be worse
than FIRST's by more than its bound. Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=200)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"] != 0:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        print(f"{workload} seed {seed}: run failed (exit {proc.returncode})"
              f"\n{tail}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Share by which `second`'s median is worse than `first`'s."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    values = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, args.seed0 + i)
                for i in range(args.runs)]
        failed = runs.count(None)
        if failed:
            print(f"{workload}: {failed} of {args.runs} runs failed",
                  file=sys.stderr)
            ok = False
        runs = [r for r in runs if r is not None]
        values[workload] = {m["name"]: [r[m["name"]] for r in runs]
                            for m in metrics}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    first = None
    if args.compare:
        with open(args.compare) as f:
            first = json.load(f)

    print(f"{'workload':16} {'metric':12} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for workload, by_metric in values.items():
        for m in metrics:
            med, s = spread(by_metric[m["name"]])
            held = s <= m["bound"]
            verdict = ("steady" if s <= m["bound"] / 3 else
                       "within bound" if held else "TOO WIDE")
            line = (f"{workload:16} {m['name']:12} {med:14.6g} {s:8.3f} "
                    f"{m['bound']:6.2f}  {verdict}")
            if first is not None and workload in first:
                before = statistics.median(first[workload][m["name"]])
                w = worse_by(m, before, med)
                line += f"  vs first {w:+.3f}"
                if w > m["bound"]:
                    line += " WORSE"
                    held = False
            ok = ok and held
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
