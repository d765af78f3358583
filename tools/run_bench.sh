#!/bin/sh
# Refreshes the committed benchmark reports (docs/SCALE.md). Runs:
#
#  * bench_scalability — gate-count/input-width curves, pairwise vs SCC,
#    the mega-scale presets through serial Stage 1 and SCC Stage 3, and
#    the summary wire codec's encode/decode throughput — written over
#    BENCH_scalability.json at the repo root;
#  * bench_kernel — serial-vs-kernel Stage-1 rows (kernel-only: both
#    exclude CombGraph::build) with per-phase (freeze/frontier/sweep)
#    attribution, plus the MegaScale flat-graph 512-source closure with
#    8-word rows against the 1-lane-word baseline — written over
#    BENCH_kernel.json;
#  * bench_engine — serial/parallel/warm engine curves, the cold
#    summary-load comparison (text sidecar vs wire binary vs loadCache
#    on a v3 cache file), the resident-service-vs-cold-process check
#    latency table (1/8/64 repeat requests on a mega preset, with the
#    >= 5x warm-edited-re-check gate on the full 100k preset —
#    docs/SERVING.md; WIRESORT_CHECK is exported below so the cold side
#    is a real process spawn), and the trace/failpoint overhead smokes —
#    written over BENCH_engine.json.
#
# Every timing in these reports is gated on a results-identical check
# (serial reference / 1-word-baseline bitset), so a committed report is
# also a passed equivalence run.
#
# Usage: tools/run_bench.sh [--quick]
#   --quick  CI-sized sweep (small presets only); the committed reports
#            should come from a full run on a quiet machine.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/build"

QUICK=""
for Arg in "$@"; do
  case "$Arg" in
  --quick) QUICK="--quick" ;;
  *)
    echo "unknown argument: $Arg" >&2
    exit 2
    ;;
  esac
done

[ -f "$BUILD/CMakeCache.txt" ] || cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j "$(nproc)" --target bench_scalability \
  --target bench_kernel --target bench_engine --target wiresort-check

# bench_engine's serving table spawns this binary for its cold side, so
# the resident-vs-cold comparison includes real process startup.
WIRESORT_CHECK="$BUILD/tools/wiresort-check"
export WIRESORT_CHECK

# shellcheck disable=SC2086 # QUICK is intentionally word-split.
"$BUILD/bench/bench_scalability" $QUICK --json "$ROOT/BENCH_scalability.json"
echo "wrote $ROOT/BENCH_scalability.json"

# shellcheck disable=SC2086
"$BUILD/bench/bench_kernel" $QUICK --json "$ROOT/BENCH_kernel.json"
echo "wrote $ROOT/BENCH_kernel.json"

# shellcheck disable=SC2086
"$BUILD/bench/bench_engine" $QUICK --json "$ROOT/BENCH_engine.json"
echo "wrote $ROOT/BENCH_engine.json"
