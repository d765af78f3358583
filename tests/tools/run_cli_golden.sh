#!/bin/sh
# Golden-file tests for the wiresort-check CLI contract
# (docs/DIAGNOSTICS.md): with --format json the tool emits
# newline-delimited support::renderJson diagnostics followed by one
# verdict line, byte-for-byte reproducible, and exits 0 (well-connected),
# 1 (error-severity diagnostics) or 2 (usage / I/O / cache trouble).
#
# Usage: run_cli_golden.sh <wiresort-check-binary> <fixture-dir>
#
# Each case runs from the fixture directory (so file names in diags stay
# relative and the goldens stay machine-independent) and diffs stdout
# against <name>.golden.json.
set -u

BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
FIXTURES=$2
cd "$FIXTURES" || exit 2

Failures=0

# run <name> <expected-exit> <arg...>: diff stdout against the golden
# and check the exit code. stderr is ignored (usage text, human diags).
run() {
  Name=$1
  WantExit=$2
  shift 2
  Out=$("$BIN" "$@" 2>/dev/null)
  GotExit=$?
  if [ "$GotExit" -ne "$WantExit" ]; then
    echo "FAIL $Name: exit $GotExit, want $WantExit" >&2
    Failures=$((Failures + 1))
    return
  fi
  if ! printf '%s\n' "$Out" | diff -u "$Name.golden.json" - >&2; then
    echo "FAIL $Name: stdout differs from $Name.golden.json" >&2
    Failures=$((Failures + 1))
    return
  fi
  echo "ok $Name (exit $GotExit)"
}

# Exit 0: a loop-free design ends in the well-connected verdict line.
run loopfree 0 loopfree.blif --format json

# Exit 0: a .subckt that leaves an output port unbound. That output drives
# no wire of the parent, so Stage 1 and the --depth analysis both skip the
# summary edges into it instead of aborting.
run unboundout 0 unboundout.blif --format json
run unboundout_depth 0 unboundout.blif --format json --depth

# Exit 1: an internal combinational loop, witness rendered as
# instance.port hops; a malformed BLIF with file:line:col provenance;
# an ascription sidecar whose declared sorts disagree with computed.
run loopy 1 loopy.blif --format json
run malformed 1 malformed.blif --format json
run badascribe 1 badascribe.blif --format json --check badascribe.wsort

# Exit 2: I/O failure (WS501), bad command line (WS503), and a --cache
# file that is not a cache-v3 wire stream (WS502). No verdict line: the
# run never got far enough to have one.
run missing 2 no_such_file.blif --format json
# A directory opens like a file but cannot be read (EISDIR): the same
# WS501, not an empty design.
run dirdesign 2 . --format json
run badflag 2 loopfree.blif --format json --bogus
# A count with a sign is refused, not wrapped ("-1" cast to unsigned is
# 4294967295 threads). The design is missing too, so a build that took
# the count would still stop before any thread pool exists.
run badthreads 2 no_such_file.blif --format json --threads -1
# The same for a 64-bit count: "-1" through strtoull was a 2^64-1 ms
# timeout, which passed the positive check.
run badtimeout 2 no_such_file.blif --format json --timeout-ms -1
run badcache 2 loopfree.blif --format json --cache bogus.wscache

# A pipe has no size to seek for: a design read through /dev/stdin gives
# the same bytes as the file itself.
Out=$(cat loopfree.blif | "$BIN" /dev/stdin --format json 2>/dev/null)
GotExit=$?
if [ "$GotExit" -ne 0 ]; then
  echo "FAIL loopfree_stdin: exit $GotExit, want 0" >&2
  Failures=$((Failures + 1))
elif ! printf '%s\n' "$Out" | diff -u loopfree.golden.json - >&2; then
  echo "FAIL loopfree_stdin: stdout differs from loopfree.golden.json" >&2
  Failures=$((Failures + 1))
else
  echo "ok loopfree_stdin (exit 0)"
fi

# Exit 3: a deadline that fires cancels the run with a WS601
# partial-progress diag and the cancelled verdict (docs/ROBUSTNESS.md).
# Real clocks are not byte-stable, so the engine.cancel failpoint
# simulates the expiry deterministically.
run timeout 3 loopfree.blif --format json --threads 1 --timeout-ms 1 \
    --failpoints engine.cancel=always

# Exit 0 despite damage: a fresh cache-v3 stream with one byte of its
# CacheEntry record (which starts at byte 44) overwritten fails that
# record's framing checksum. The record is quarantined with a WS603
# warning naming its offset, the module re-infers cold, and the verdict
# is unchanged. The run then saves the cache again, healing it back to
# the bytes a clean run writes.
rm -f corrupt.run.wscache
if ! "$BIN" loopfree.blif --format json --cache corrupt.run.wscache \
     >/dev/null 2>&1; then
  echo "FAIL corruptcache: the cold run that writes the cache failed" >&2
  Failures=$((Failures + 1))
fi
cp corrupt.run.wscache corrupt.clean.wscache
printf '\377' | dd of=corrupt.run.wscache bs=1 seek=56 conv=notrunc \
  2>/dev/null
run corruptcache 0 loopfree.blif --format json --cache corrupt.run.wscache
if cmp -s corrupt.clean.wscache corrupt.run.wscache; then
  echo "ok corruptcache healed on save"
else
  echo "FAIL corruptcache: save did not heal the damaged record" >&2
  Failures=$((Failures + 1))
fi
rm -f corrupt.run.wscache corrupt.clean.wscache

# Exit 2: a pre-v3 text cache is not a wire stream, so it is refused
# with WS502 like any other file --cache cannot read, and never
# rewritten. The fixture is copied to a scratch name first so that a
# regression cannot damage it.
cp legacyv2.wscache legacy.run.wscache
run legacycache 2 loopfree.blif --format json --cache legacy.run.wscache
if cmp -s legacyv2.wscache legacy.run.wscache; then
  echo "ok legacycache left the file untouched"
else
  echo "FAIL legacycache: the refused cache file was modified" >&2
  Failures=$((Failures + 1))
fi
rm -f legacy.run.wscache

# --stats: the NDJSON stats record precedes the verdict line. Counters
# are deterministic at --threads 1; the histogram timing fields are not,
# so jq reduces each histogram to its count before the diff (which is
# why this case needs jq at all).
if command -v jq >/dev/null 2>&1; then
  Out=$("$BIN" loopfree.blif --format json --threads 1 --stats \
        2>/dev/null)
  GotExit=$?
  Norm=$(printf '%s\n' "$Out" | jq -c 'if .type == "stats"
           then .histograms |= with_entries(.value |= {count: .count})
           else . end')
  if [ "$GotExit" -ne 0 ]; then
    echo "FAIL stats: exit $GotExit, want 0" >&2
    Failures=$((Failures + 1))
  elif ! printf '%s\n' "$Norm" | diff -u stats.golden.json - >&2; then
    echo "FAIL stats: stdout differs from stats.golden.json" >&2
    Failures=$((Failures + 1))
  else
    echo "ok stats (exit 0)"
  fi
fi

# --stats counters do not depend on the thread schedule: two
# content-identical leaves under different names cost one inference and
# one cache hit at --threads 1 and --threads 4 alike, so both runs diff
# against the one golden (same histogram normalization as above).
if command -v jq >/dev/null 2>&1; then
  for Threads in 1 4; do
    Out=$("$BIN" twins.blif --format json --threads "$Threads" --stats \
          2>/dev/null)
    GotExit=$?
    Norm=$(printf '%s\n' "$Out" | jq -c 'if .type == "stats"
             then .histograms |= with_entries(.value |= {count: .count})
             else . end')
    if [ "$GotExit" -ne 0 ]; then
      echo "FAIL twins_stats --threads $Threads: exit $GotExit, want 0" >&2
      Failures=$((Failures + 1))
    elif ! printf '%s\n' "$Norm" | diff -u twins_stats.golden.json - >&2
    then
      echo "FAIL twins_stats --threads $Threads: stdout differs from" \
        "twins_stats.golden.json" >&2
      Failures=$((Failures + 1))
    else
      echo "ok twins_stats --threads $Threads (exit 0)"
    fi
  done
fi

# --stats, human rendering: byte-stable once the wall-clock tokens
# ("... ms", "sum=..us") are scrubbed.
Out=$("$BIN" loopfree.blif --quiet --threads 1 --stats 2>/dev/null |
      sed -e 's/[0-9][0-9.]* ms/NNN ms/g' -e 's/=[0-9][0-9]*us/=NNNus/g')
if ! printf '%s\n' "$Out" | diff -u statstext.golden.txt - >&2; then
  echo "FAIL statstext: stdout differs from statstext.golden.txt" >&2
  Failures=$((Failures + 1))
else
  echo "ok statstext"
fi

# The machine contract really is machine-readable: every line of every
# golden must parse as standalone JSON (jq is in the base image; skip
# quietly where it is not).
if command -v jq >/dev/null 2>&1; then
  for Golden in *.golden.json; do
    if ! jq -e . "$Golden" >/dev/null 2>&1; then
      echo "FAIL $Golden is not valid NDJSON" >&2
      Failures=$((Failures + 1))
    fi
  done
  echo "ok goldens parse as NDJSON (jq)"
fi

if [ "$Failures" -ne 0 ]; then
  echo "$Failures golden CLI case(s) failed" >&2
  exit 1
fi
echo "all golden CLI cases passed"
