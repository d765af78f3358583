#!/bin/sh
# Nine-stage test driver:
#
#   1. the regular suite in the default build tree (configured if
#      absent) — includes the structured-diagnostics suites (DiagTest,
#      ParseDiagTest) and the golden-file CLI contract tests
#      (tests/tools/run_cli_golden.sh, docs/DIAGNOSTICS.md);
#   2. a ThreadSanitizer build of the SummaryEngine suites — the engine's
#      scheduler/cache locking (docs/ENGINE.md) is a correctness claim,
#      and so is the byte-identical serial/parallel/warm diag ordering
#      the determinism trials assert, so the concurrency-heavy tests
#      rerun under -fsanitize=thread; the kernel suite rides along (the
#      graph algorithms and the bit-parallel kernel, whose masks feed the
#      engine), and so does the parser suite (a BLIF file's `.model`
#      chunks parse on worker threads beside a shared parse cache);
#   3. an UndefinedBehaviorSanitizer build of the kernel, support, IR,
#      analysis, parser, synthesis, simulator, driver and generator
#      suites — the CSR packing, Tarjan, cycle walk, Kahn order and sweep
#      (docs/KERNEL.md), the wire format's varint and fixed64 shifts and
#      its blob offsets, the port index's probe arithmetic and seal's
#      slot indexing and name offsets (every tile, cluster and top the
#      generators build is sealed, and every Builder literal goes
#      through a module's constant table), both summary decoders, the
#      Verilog literal decoder's multiply-add and range checks, the reader's width masks
#      and constant shifts, the probe arithmetic of BLIF pass 1's name
#      table, the net-input and cover-row offsets into each module's flat
#      arrays that lowering, flattening, constant folding and the
#      simulator index, and the serve request decoder's in-place move of
#      the design text within the read buffer live on shifts and offset
#      arithmetic, which is exactly UBSan's beat;
#   4. a jq smoke check that live `wiresort-check --format json` output
#      is valid NDJSON (skipped when jq is absent);
#   5. a trace/stats validation stage (docs/OBSERVABILITY.md): export the
#      riscv_soc CPU as BLIF, run `wiresort-check --trace-out --stats`
#      over it, and jq-check the Chrome trace (ph/ts/tid on every event,
#      monotonic timestamps, engine/kernel/parse categories, cache
#      hit/miss attributes on engine.module spans, one engine.keys span
#      per engine.analyze span on the same thread) and that the fault.*
#      robustness and serve.* overload counters are present, jq-check a
#      `wiresort-mega ci --trace-out --json --stats` run (ir.seal spans
#      noting `wires` and `label_bytes`, one gen.fingerprint span, the
#      stats record just before the verdict line), then run the
#      bench_engine disabled-vs-enabled tracing and failpoint overhead
#      smokes (the median ratio of alternated samples);
#   6. an AddressSanitizer build of the fault-injection suites — the
#      200-schedule fault soak (ctest label `soak`) plus the
#      crash-recovery and failpoint unit suites (docs/ROBUSTNESS.md):
#      injected faults walk the error/retry/quarantine paths that
#      ordinary runs never touch, which is exactly where leaks and
#      use-after-frees hide — plus the kernel suite, which then runs the
#      graph algorithms and the row-arena indexing of every row width
#      under ASan, the IR,
#      analysis, soundness and metamorphic suites, which index
#      Circuit::seal's bindings and Stage 3's dense port numbering, the
#      parser suite, whose BLIF pass 1 holds views into the caller's
#      text and whose chunk cache must own everything it keeps, and
#      every other suite that builds or reads wire names, which are
#      views into one name buffer per module (synthesis composes bit and
#      hierarchy names, the generators seal circuits, the simulator and
#      the VCD writer read names, the driver renders them);
#   7. the scale tier (docs/SCALE.md): the metamorphic and
#      generator-determinism suites (ctest label `scale`) and a
#      byte-comparison of `--threads 2` and `--threads 4` against
#      `--threads 1` wiresort-check output — JSON stdout, and text stderr
#      with its caret echoes — on every golden BLIF fixture and the
#      emitted riscv_soc netlist (the thread count sets the parse threads
#      as well as Stage 1's; at 2, Stage 1's pool has one worker beside
#      the calling thread);
#   8. the wire-format contract (docs/FORMATS.md): on the golden
#      fixtures, text -> binary -> text summary conversion must
#      round-trip byte-identically, repeated binary writes must be
#      byte-stable, and the binary sidecar and the `--cache` file (whose
#      keys a pooled run hashes on its workers) a `--threads 4` run
#      writes must be byte-identical to the serial ones;
#   9. the serving tier (docs/SERVING.md): the `served`-labelled suites
#      (driver facade + in-process server + concurrent soak + the
#      overload-safety suite) rerun under TSan — the resident cache,
#      telemetry mutex, and connection pool are concurrency claims —
#      and the two serving soaks rerun under ASan (overload paths move
#      buffers across threads under fault schedules), followed by an
#      out-of-process golden session: start wiresort-served on a
#      scratch socket, replay the golden corpus through wiresort-client,
#      byte-compare every response against a cold serial wiresort-check
#      run, probe health, stop a second instance with SIGTERM (the
#      graceful-drain path), and assert clean shutdowns that leak
#      neither socket files nor temp files.
#
# Usage: tools/run_tests.sh [--skip-slow]
#   --skip-slow  excludes the ctest label `slow` (the 200-seed
#                differential and fault soaks) from the regular stage; the
#                TSan stage always runs the differential soak (races love
#                randomized schedules) and the ASan stage always runs the
#                fault soak.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/build"
TSAN_BUILD="$ROOT/build-tsan"

LABEL_ARGS=""
for Arg in "$@"; do
  case "$Arg" in
  --skip-slow) LABEL_ARGS="-LE slow" ;;
  *)
    echo "unknown argument: $Arg" >&2
    exit 2
    ;;
  esac
done

echo "=== stage 1: full suite ($BUILD) ==="
[ -f "$BUILD/CMakeCache.txt" ] || cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j "$(nproc)"
# shellcheck disable=SC2086 # LABEL_ARGS is intentionally word-split.
(cd "$BUILD" && ctest --output-on-failure $LABEL_ARGS)

echo
echo "=== stage 2: SummaryEngine suites under ThreadSanitizer ($TSAN_BUILD) ==="
[ -f "$TSAN_BUILD/CMakeCache.txt" ] || cmake -B "$TSAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_BUILD" -j "$(nproc)" \
  --target engine_tests differential_tests kernel_tests trace_tests \
  parse_tests
# halt_on_error so a single race fails the run instead of scrolling by.
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/engine_tests"
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/differential_tests"
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/kernel_tests"
# The trace layer's per-thread buffers and counter registry are lockless
# on the hot path; the suite hammers them from a ThreadPool on purpose.
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/trace_tests"
# BLIF chunks parse on worker threads, polling the deadline and the
# failpoint registry, while the calling thread owns the parse cache.
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/parse_tests"

echo
echo "=== stage 3: kernel, support, IR, analysis, parser, synthesis, simulator, driver and generator suites under UndefinedBehaviorSanitizer ($ROOT/build-ubsan) ==="
UBSAN_BUILD="$ROOT/build-ubsan"
[ -f "$UBSAN_BUILD/CMakeCache.txt" ] || cmake -B "$UBSAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build "$UBSAN_BUILD" -j "$(nproc)" \
  --target kernel_tests support_tests ir_tests analysis_tests parse_tests \
  synth_tests sim_tests driver_tests gen_tests gen_determinism_tests
"$UBSAN_BUILD/tests/kernel_tests"
# Varint and fixed64 shifts of the wire format, and the offsets at which
# a record's blobs splice into its frame.
"$UBSAN_BUILD/tests/support_tests"
# The port index's probes and seal's slot-indexed bindings.
"$UBSAN_BUILD/tests/ir_tests"
# Both summary decoders, text and binary.
"$UBSAN_BUILD/tests/analysis_tests"
# The Verilog literal decoder's multiply-add, the reader's width masks
# (1 << Width) and constant shifts, and BLIF pass 1's name-table probes.
"$UBSAN_BUILD/tests/parse_tests"
# Lowering, flattening, constant folding and the simulator read net
# inputs and cover rows by offset into each module's flat arrays, and
# folding rewrites inputs in place.
"$UBSAN_BUILD/tests/synth_tests"
"$UBSAN_BUILD/tests/sim_tests"
# The serve codecs: the request decoder moves the design text to the
# front of the server's read buffer by offset arithmetic.
"$UBSAN_BUILD/tests/driver_tests"
# The generators seal every tile, cluster and top they build, writing
# each promoted port's name at an offset into the top's name buffer, and
# their literals index each module's constant table. Run directly, the
# determinism suite skips its cross-process half (WIRESORT_MEGA is
# unset); stage 7 runs that half.
"$UBSAN_BUILD/tests/gen_tests"
"$UBSAN_BUILD/tests/gen_determinism_tests"

echo
echo "=== stage 4: CLI JSON smoke check (jq) ==="
if command -v jq >/dev/null 2>&1; then
  CHECK="$BUILD/tools/wiresort-check"
  FIXTURES="$ROOT/tests/tools"
  # Loop-free: one verdict line; loopy: diag lines + verdict. Every line
  # must parse standalone (the NDJSON contract, docs/DIAGNOSTICS.md).
  (cd "$FIXTURES" && "$CHECK" loopfree.blif --format json) | jq -e . \
    >/dev/null
  (cd "$FIXTURES" && "$CHECK" loopy.blif --format json || [ $? -eq 1 ]) \
    | jq -e . >/dev/null
  echo "wiresort-check --format json output parses as NDJSON"
else
  echo "jq not found; skipping"
fi

echo
echo "=== stage 5: trace & stats validation (jq) ==="
if command -v jq >/dev/null 2>&1; then
  TRACE_TMP=$(mktemp -d)
  trap 'rm -rf "$TRACE_TMP"' EXIT
  # A real multi-module netlist: the Section 5.3 CPU, lowered and
  # exported by the example binary itself.
  "$BUILD/examples/riscv_soc" --emit-blif "$TRACE_TMP/soc.blif" >/dev/null
  "$BUILD/tools/wiresort-check" "$TRACE_TMP/soc.blif" --quiet \
    --threads 2 --stats --trace-out "$TRACE_TMP/trace.json" \
    >"$TRACE_TMP/stats.txt"
  TRACE="$TRACE_TMP/trace.json"
  # The document parses, is non-empty, and every event carries the
  # Chrome trace-event basics.
  jq -e '.traceEvents | length > 0' "$TRACE" >/dev/null
  jq -e '[.traceEvents[] | has("ph") and has("ts") and has("pid") and
          has("tid")] | all' "$TRACE" >/dev/null
  # Timestamps are monotonic (parents flushed before children).
  jq -e '[.traceEvents[].ts] as $t | $t == ($t | sort)' "$TRACE" \
    >/dev/null
  # Every instrumented layer shows up.
  jq -e '[.traceEvents[].cat // empty] | unique as $c |
         (["engine", "kernel", "parse"] - $c) == []' "$TRACE" >/dev/null
  # engine.module spans carry the cache hit/miss attribute.
  jq -e '[.traceEvents[] | select(.name == "engine.module") |
          .args.result] | length > 0 and
         (unique - ["hit", "miss", "ascribed", "loop"]) == []' \
    "$TRACE" >/dev/null
  # Each engine.analyze span holds one engine.keys span, on its thread:
  # the calling thread hashes keys beside the pool (docs/ENGINE.md).
  jq -e '[.traceEvents[] | select(.name == "engine.analyze") | .tid] as $a |
         [.traceEvents[] | select(.name == "engine.keys") | .tid] as $k |
         ($a | length) > 0 and ($a | sort) == ($k | sort)' "$TRACE" \
    >/dev/null
  grep -q 'engine.cache_misses' "$TRACE_TMP/stats.txt"
  # The robustness counters are interned at startup so they are visible
  # (at zero, here) in every stats report (docs/ROBUSTNESS.md).
  grep -q 'fault.injected' "$TRACE_TMP/stats.txt"
  grep -q 'fault.quarantined_records' "$TRACE_TMP/stats.txt"
  # Likewise the wire codec counters (docs/FORMATS.md): interned at
  # startup, so present even in a run that never touched binary data.
  grep -q 'wire.records_written' "$TRACE_TMP/stats.txt"
  grep -q 'wire.records_read' "$TRACE_TMP/stats.txt"
  grep -q 'wire.checksum_failures' "$TRACE_TMP/stats.txt"
  # And the serving layer's overload counters (docs/SERVING.md): zero on
  # a CLI run by construction — nothing serves — but always enumerated.
  grep -q 'serve.admitted' "$TRACE_TMP/stats.txt"
  grep -q 'serve.shed' "$TRACE_TMP/stats.txt"
  grep -q 'serve.timed_out' "$TRACE_TMP/stats.txt"
  grep -q 'serve.queue_depth' "$TRACE_TMP/stats.txt"
  echo "trace-out document passes the jq contract checks"
  # wiresort-mega traces its whole run: an ir.seal span per sealed
  # circuit (the tiles, the cluster, then the top), each noting the
  # wires it added and their names' rendered bytes, and one
  # gen.fingerprint span. Its stats record comes just before the
  # verdict line, as wiresort-check's does.
  "$BUILD/tools/wiresort-mega" ci --json --stats \
    --trace-out "$TRACE_TMP/mega.json" >"$TRACE_TMP/mega.ndjson"
  jq -e '[.traceEvents[] | select(.name == "ir.seal")] as $s |
         ($s | length) > 0 and
         ([$s[].args | has("wires") and has("label_bytes")] | all)' \
    "$TRACE_TMP/mega.json" >/dev/null
  jq -e '[.traceEvents[] | select(.name == "gen.fingerprint")] |
         length == 1' "$TRACE_TMP/mega.json" >/dev/null
  jq -se '.[-2].type == "stats" and .[-1].verdict == "well-connected"' \
    "$TRACE_TMP/mega.ndjson" >/dev/null
  echo "wiresort-mega --trace-out and --stats pass the jq contract checks"
  # Disabled-vs-enabled overhead smokes — tracing and failpoints share
  # the same one-relaxed-load budget. Each prints the median ratio of
  # alternated ~30 ms samples (the < 2% bar is asserted by eye/trend
  # tooling, not a hard gate: CI machines are noisy).
  "$BUILD/bench/bench_engine" --quick | grep -A2 "overhead smoke"
else
  echo "jq not found; skipping"
fi

echo
echo "=== stage 6: fault-injection, circuit, parser and name-building suites under AddressSanitizer ($ROOT/build-asan) ==="
ASAN_BUILD="$ROOT/build-asan"
[ -f "$ASAN_BUILD/CMakeCache.txt" ] || cmake -B "$ASAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build "$ASAN_BUILD" -j "$(nproc)" \
  --target fault_soak_tests engine_tests support_tests kernel_tests \
  ir_tests analysis_tests property_tests metamorphic_tests parse_tests \
  synth_tests gen_tests sim_tests riscv_tests driver_tests
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/fault_soak_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/engine_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/support_tests"
# The kernel suite under ASan: the CSR packing, Tarjan, cycle walk and
# Kahn order, and every row width's loads/stores against the flat row
# arena, including the partial-row tails at the 63/65/127/129/511/513
# source boundaries.
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/kernel_tests"
# Seal's slot-indexed bindings and Stage 3's dense port numbering: the
# reference-seal and Stage-3 tests, the soundness oracle, and the
# metamorphic pairwise-vs-SCC trials.
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/ir_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/analysis_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/property_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/metamorphic_tests"
# BLIF pass 1 tokenizes over views into the caller's text; the parse
# cache must copy what it keeps (the freed-text replay case) and no view
# may outlive the parse.
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/parse_tests"
# Wire names are views into their module's name buffer, valid until the
# module adds a wire: lowering, flattening and optimizing compose names
# from other names, the generators seal circuits, and the simulator, the
# VCD writer and the check driver read names.
for Suite in synth_tests gen_tests sim_tests riscv_tests driver_tests; do
  ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/$Suite"
done

echo
echo "=== stage 7: scale tier — thread-count determinism (docs/SCALE.md) ==="
cmake --build "$BUILD" -j "$(nproc)" \
  --target metamorphic_tests gen_determinism_tests wiresort-check \
  wiresort-mega
(cd "$BUILD" && ctest --output-on-failure -L scale)
SCALE_TMP=$(mktemp -d)
# Keep stage 5's temp dir in the cleanup when both stages ran.
trap 'rm -rf "${TRACE_TMP:-}" "$SCALE_TMP"' EXIT
CHECK="$BUILD/tools/wiresort-check"
FIXTURES="$ROOT/tests/tools"
cmake --build "$BUILD" -j "$(nproc)" --target riscv_soc
"$BUILD/examples/riscv_soc" --emit-blif "$SCALE_TMP/soc.blif" >/dev/null
for Fixture in loopfree.blif loopy.blif malformed.blif twins.blif \
  unboundout.blif "$SCALE_TMP/soc.blif"; do
  # Serial vs two and four threads: byte-identical NDJSON on stdout, and
  # byte-identical text diagnostics (caret echoes included) on stderr.
  for Threads in 1 2 4; do
    (cd "$FIXTURES" && "$CHECK" "$Fixture" --format json \
      --threads "$Threads") >"$SCALE_TMP/json$Threads" || [ $? -eq 1 ]
    (cd "$FIXTURES" && "$CHECK" "$Fixture" --quiet \
      --threads "$Threads") >/dev/null 2>"$SCALE_TMP/text$Threads" ||
      [ $? -eq 1 ]
  done
  for Threads in 2 4; do
    cmp "$SCALE_TMP/json1" "$SCALE_TMP/json$Threads"
    cmp "$SCALE_TMP/text1" "$SCALE_TMP/text$Threads"
  done
done
echo "--threads 1, 2 and 4 NDJSON and text diagnostics agree byte-for-byte"

echo
echo "=== stage 8: wire-format round-trip contract (docs/FORMATS.md) ==="
WIRE_TMP=$(mktemp -d)
trap 'rm -rf "${TRACE_TMP:-}" "${SCALE_TMP:-}" "$WIRE_TMP"' EXIT
CHECK="$BUILD/tools/wiresort-check"
# Loop-free fixtures only: a WS101 verdict writes no sidecar. The CLI
# golden fixture plus the 12-module Section 5.3 CPU netlist.
cp "$ROOT/tests/tools/loopfree.blif" "$WIRE_TMP/loopfree.blif"
"$BUILD/examples/riscv_soc" --emit-blif "$WIRE_TMP/soc.blif" >/dev/null
for Fixture in loopfree.blif soc.blif; do
  F="$WIRE_TMP/$Fixture"
  # A text sidecar, converted text -> binary -> text, must come back
  # byte-identical — the two formats carry the same information.
  "$CHECK" "$F" --quiet \
    --summaries "$WIRE_TMP/text1.wsort" --summary-format text >/dev/null
  "$CHECK" "$F" --quiet --convert-summaries "$WIRE_TMP/text1.wsort" \
    --summaries "$WIRE_TMP/bin.wsort" --summary-format binary >/dev/null
  "$CHECK" "$F" --quiet --convert-summaries "$WIRE_TMP/bin.wsort" \
    --summaries "$WIRE_TMP/text2.wsort" --summary-format text >/dev/null
  cmp "$WIRE_TMP/text1.wsort" "$WIRE_TMP/text2.wsort"
  # Binary writes are deterministic: a direct serial binary sidecar
  # matches the converted one byte for byte, and so does one written
  # by four worker threads.
  "$CHECK" "$F" --quiet --threads 1 \
    --summaries "$WIRE_TMP/bin_direct.wsort" --summary-format binary \
    >/dev/null
  cmp "$WIRE_TMP/bin.wsort" "$WIRE_TMP/bin_direct.wsort"
  "$CHECK" "$F" --quiet --threads 4 \
    --summaries "$WIRE_TMP/bin_threads4.wsort" --summary-format binary \
    >/dev/null
  cmp "$WIRE_TMP/bin_direct.wsort" "$WIRE_TMP/bin_threads4.wsort"
  # The summary cache carries each module's key, which a --threads 4
  # run hashes on its pool: its file matches the serial run's.
  for Threads in 1 4; do
    rm -f "$WIRE_TMP/cache$Threads.wscache"
    "$CHECK" "$F" --quiet --threads "$Threads" \
      --cache "$WIRE_TMP/cache$Threads.wscache" >/dev/null
  done
  cmp "$WIRE_TMP/cache1.wscache" "$WIRE_TMP/cache4.wscache"
done
echo "text <-> binary summaries round-trip; serial and --threads 4 binary sidecars and cache files agree byte-for-byte"

echo
echo "=== stage 9: serving tier — resident daemon (docs/SERVING.md) ==="
# The served-labelled suites already ran in stage 1's default tier; here
# they rerun under ThreadSanitizer, because one resident CheckService
# handling concurrent requests (shared summary cache, serialized
# telemetry window, pooled connections) is a concurrency claim.
cmake --build "$TSAN_BUILD" -j "$(nproc)" \
  --target driver_tests served_soak_tests served_robustness_tests
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/driver_tests"
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/served_soak_tests"
TSAN_OPTIONS="halt_on_error=1" "$TSAN_BUILD/tests/served_robustness_tests"
# The serving soaks again under AddressSanitizer (stage 6 built the
# build tree): the overload paths shuttle request/response buffers
# across threads under fault schedules — exactly where a lifetime bug
# would hide from the default build.
cmake --build "$ASAN_BUILD" -j "$(nproc)" \
  --target served_soak_tests served_robustness_tests
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/served_soak_tests"
ASAN_OPTIONS="abort_on_error=1" "$ASAN_BUILD/tests/served_robustness_tests"
# Out-of-process golden session: daemon up, golden corpus through the
# client byte-compared against serial CLI runs, clean shutdown with no
# leaked socket. (The script itself asserts the unlink; we re-assert
# from out here that its scratch dir is gone too.)
cmake --build "$BUILD" -j "$(nproc)" \
  --target wiresort-served wiresort-client wiresort-check
SERVED_SOCKS_BEFORE=$(find "${TMPDIR:-/tmp}" -maxdepth 1 \
  -name 'served_golden.*' 2>/dev/null | wc -l)
sh "$ROOT/tests/tools/run_served_golden.sh" \
  "$BUILD/tools/wiresort-served" "$BUILD/tools/wiresort-client" \
  "$BUILD/tools/wiresort-check" "$ROOT/tests/tools"
SERVED_SOCKS_AFTER=$(find "${TMPDIR:-/tmp}" -maxdepth 1 \
  -name 'served_golden.*' 2>/dev/null | wc -l)
if [ "$SERVED_SOCKS_AFTER" -gt "$SERVED_SOCKS_BEFORE" ]; then
  echo "FAIL: serving golden session leaked scratch dirs" >&2
  exit 1
fi
echo "resident daemon matches serial CLI byte-for-byte and shuts down clean"

echo
echo "all suites passed (regular + TSan + UBSan + CLI smoke + trace + ASan soak + scale + wire + serving)"
