#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload mesh_coupling --seed 1 --seconds 10 --trace 0

Builds the runtime libraries and the runner from source (CMake, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs one workload
for --seconds of host time, prints every metric with its unit and clock,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
named in BENCHMARK.json, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
           "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "perfbench_runner")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    runner = build(build_dir)
    if runner is None:
        log("perfbench: build failed")
        return 1
    out_dir = os.path.join(build_dir, "trace")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: runner exceeded {RUNNER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: runner exited with {proc.returncode}")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH_JSON ")]
    if not lines:
        log("perfbench: runner printed no result")
        return 1
    res = json.loads(lines[-1].split(" ", 1)[1])

    metrics = res["metrics"]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ==")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:44s} {m['value']!s:>24} {m['unit']:6s} [{m['clock']}]")
    for key in sorted(res["notes"]):
        print(f"  note {key:39s} {res['notes'][key]}")
    if args.trace:
        print(f"  trace file {os.path.join(out_dir, 'TRACE_' + args.workload + '.json')}")

    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log(f"perfbench: metric {m['name']} missing or mis-united: {got}")
            return 1
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": bool(res["correct"]) and res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": out,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
