#!/usr/bin/env bash
# Builds a sanitizer preset and runs a slice of the test suite under it.
#
# The lists below are the one place the sanitized slices are defined; CI
# calls this script without a filter.  The default preset is asan-ubsan:
# the schedule builder and executor suites, the randomized copy fuzzer, and
# every decoder of bytes that arrive from another program, a file or a
# client (region sets, library descriptors, the duplication bundle,
# snapshot blobs), every suite whose schedules keep the executor their
# first dataMove* call binds (the core copy, MC_* API and workload suites),
# the RCB partitioner's suite (its in-place cut selection against the
# whole-tree oracle), the two suites that run the staged local-copy
# path (Parti section copies and chaos::remap), and the suites of the
# library-native builders that append runs directly (Chaos, HPF and
# Multiblock Parti) and of the section row iterator under the Parti box
# calculus (layout).
# Pass --preset=tsan to run the ThreadSanitizer build instead: the
# transport / executor / split-phase suites, where the cross-thread mailbox
# traffic lives, the schedule cache, whose inter-program hit/miss agreement
# crosses program threads, and the suites whose schedules keep a bound
# executor — per-rank mutable state inside shared, cached schedules (two
# MC_ComputeSched handles share one cached schedule, copyRegions fetches one
# from the rank's cache, CoupledMesh steps two) — and the inter-program
# suite, whose paired builds and moves run across program threads.
#
# Usage: scripts/sanitize_smoke.sh [--preset=asan-ubsan|tsan] [ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=asan-ubsan
if [[ "${1:-}" == --preset=* ]]; then
  PRESET="${1#--preset=}"
  shift
fi

case "$PRESET" in
  asan-ubsan)
    BUILD_DIR=build-asan
    DEFAULT_FILTER="test_run_compression|test_run_join|test_schedule_cache|test_schedule_invariants|test_executor|test_split_phase|test_fuzz_copy|test_obs|test_localize_batch|test_run_kernels|test_schedule_delta|test_topology|test_server|test_server_sharing|test_snapshot|test_core_regions|test_core_interprogram|test_adapter_contract|test_core_copy|test_mc_api|test_workloads|test_rcb|test_parti|test_remap_merge|test_chaos|test_hpfrt|test_multiblock|test_layout"
    ;;
  tsan)
    BUILD_DIR=build-tsan
    DEFAULT_FILTER="test_transport|test_transport_extra|test_executor|test_split_phase|test_obs|test_schedule_cache|test_localize_batch|test_run_kernels|test_schedule_delta|test_topology|test_server|test_server_sharing|test_snapshot|test_core_copy|test_mc_api|test_workloads|test_schedule_invariants|test_core_interprogram"
    ;;
  *)
    echo "unknown preset: $PRESET (expected asan-ubsan or tsan)" >&2
    exit 2
    ;;
esac

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "$(nproc)"

FILTER="${1:-$DEFAULT_FILTER}"
ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD_DIR" -R "$FILTER" --output-on-failure -j 2
