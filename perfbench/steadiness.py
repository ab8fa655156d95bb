#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload repeatedly (one seed per run) and prints, per workload
and end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json.  Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out .bench_build/set1.json
    python3 perfbench/steadiness.py --runs 10 --out .bench_build/set2.json
    python3 perfbench/steadiness.py --compare .bench_build/set1.json .bench_build/set2.json

A set is steady when every spread except setup_s stays within its bound;
two sets agree when no metric's second median is worse than the first by
more than its bound.
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


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, results):
    ok = True
    for workload, runs in results.items():
        print(f"== {workload}: {len(runs)} runs ==")
        print(f"  {'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            name = m["name"]
            med, q1, q3, spread = summary([r[name] for r in runs])
            steady = name == "setup_s" or spread <= m["bound"]
            ok = ok and steady
            flag = "" if steady else "  TOO WIDE"
            if steady and name != "setup_s" and spread > m["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {name:22s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}{flag}")
    return ok


def compare(spec, first, second):
    ok = True
    for workload in first:
        print(f"== {workload}: second set vs first ==")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = statistics.median([r[name] for r in first[workload]])
            b = statistics.median([r[name] for r in second[workload]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= m["bound"]
            ok = ok and agree
            print(f"  {name:22s} {a:14.6g} -> {b:14.6g}  worse by "
                  f"{worse:+8.4f} (bound {m['bound']:.2f})"
                  f"{'' if agree else '  REGRESSED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", help="default: all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--out", help="write the raw values here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        return 0 if compare(spec, first, second) else 1

    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results[w].append(run_once(w, seed, seconds))
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
