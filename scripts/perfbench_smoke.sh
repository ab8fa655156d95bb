#!/usr/bin/env bash
# Builds the repository benchmark (perfbench/, a stand-alone CMake build of
# src/) and runs each of its workloads briefly, untraced and traced.
# run.py exits 0 whatever the run's outcome, so the last line of each run —
# one JSON object — is checked here: the script fails unless every run
# reports "correct": true and "failed": 0.
#
# Usage: scripts/perfbench_smoke.sh [seconds per run, default 2]
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_SECONDS="${1:-2}"
for workload in mesh_coupling adaptive_remap matvec_service; do
  for trace in 0 1; do
    last=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
             --seconds "$RUN_SECONDS" --trace "$trace" | tail -n 1)
    echo "$workload trace=$trace: $last"
    python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$last"
  done
done
