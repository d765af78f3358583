#!/bin/sh
# Golden session for the resident check service (docs/SERVING.md): start
# wiresort-served on a scratch socket, replay the CLI golden corpus
# through wiresort-client, and byte-compare each response's stdout and
# exit code against a fresh serial `wiresort-check --format json` run on
# the same inputs — the daemon's identity-by-construction claim, checked
# from the outside. Then stats, shutdown, and the no-droppings check:
# the daemon must exit 0 and unlink its socket file. A daemon that does
# not stop within 30 s is killed and counted as a failure, and the exit
# trap kills any daemon a failed step leaves running.
#
# Usage: run_served_golden.sh <wiresort-served> <wiresort-client> \
#            <wiresort-check> <fixture-dir>
set -u

SERVED=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
CLIENT=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
CHECK=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
FIXTURES=$4
cd "$FIXTURES" || exit 2

SCRATCH=$(mktemp -d "${TMPDIR:-/tmp}/served_golden.XXXXXX")
SOCK=$SCRATCH/served.sock
# The daemons still running (each is cleared once it has been reaped).
SERVED_PID=""
DRAIN_PID=""
cleanup() {
  for Pid in $SERVED_PID $DRAIN_PID; do
    kill -KILL "$Pid" 2>/dev/null
  done
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

Failures=0

# await <pid>: waits up to 30 s for a daemon to exit and puts its exit
# status in AwaitExit. A daemon still running then is killed, and await
# returns 1.
await() {
  Deadline=$(($(date +%s) + 30))
  while kill -0 "$1" 2>/dev/null; do
    if [ "$(date +%s)" -ge "$Deadline" ]; then
      kill -KILL "$1" 2>/dev/null
      wait "$1" 2>/dev/null
      return 1
    fi
    sleep 0.1
  done
  wait "$1"
  AwaitExit=$?
}

"$SERVED" --socket "$SOCK" --workers 2 > "$SCRATCH/served.log" 2>&1 &
SERVED_PID=$!

# Wait for the listening line (the daemon prints it once bound).
Tries=0
while ! grep -q "listening on" "$SCRATCH/served.log" 2>/dev/null; do
  Tries=$((Tries + 1))
  if [ "$Tries" -gt 100 ]; then
    echo "FAIL: daemon never started" >&2
    cat "$SCRATCH/served.log" >&2
    exit 1
  fi
  sleep 0.05
done

# run <name> <arg...>: the same request through the daemon and through a
# cold serial CLI process; stdout and exit must match byte for byte.
run() {
  Name=$1
  shift
  "$CLIENT" --socket "$SOCK" "$@" > "$SCRATCH/client.out" 2>/dev/null
  ClientExit=$?
  "$CHECK" "$@" > "$SCRATCH/cli.out" 2>/dev/null
  CliExit=$?
  if [ "$ClientExit" -ne "$CliExit" ]; then
    echo "FAIL $Name: client exit $ClientExit, cli exit $CliExit" >&2
    Failures=$((Failures + 1))
    return
  fi
  if ! diff -u "$SCRATCH/cli.out" "$SCRATCH/client.out" >&2; then
    echo "FAIL $Name: daemon stdout differs from serial CLI" >&2
    Failures=$((Failures + 1))
    return
  fi
  echo "ok $Name (exit $ClientExit, bytes identical)"
}

run loopfree loopfree.blif --format json
run loopy loopy.blif --format json
run malformed malformed.blif --format json
run badascribe badascribe.blif --format json --check badascribe.wsort
# A .subckt leaving an output unbound once aborted the checker, and with
# it the daemon; every case after this one shows the daemon still serves.
run unboundout unboundout.blif --format json
run unboundout_depth unboundout.blif --format json --depth
# A --cache file that is not a cache-v3 stream: the same WS502 refusal.
run badcache loopfree.blif --format json --cache bogus.wscache
# Warm repeat: the resident cache serves every summary; bytes unchanged.
run loopfree_warm loopfree.blif --format json
# Text mode has no timing in diagnostics-only runs, so it goldens too.
run malformed_text malformed.blif

# A directory is not a design: the client refuses it with WS501 and exit
# 2 before anything reaches the daemon (its message names no path, so it
# is not byte-compared with the CLI's).
"$CLIENT" --socket "$SOCK" . --format json > "$SCRATCH/client.out" \
  2>/dev/null
ClientExit=$?
if [ "$ClientExit" -ne 2 ]; then
  echo "FAIL dirdesign: client exit $ClientExit, want 2" >&2
  Failures=$((Failures + 1))
elif ! grep -q '"code":"WS501_IO_ERROR"' "$SCRATCH/client.out"; then
  echo "FAIL dirdesign: no WS501 from the client" >&2
  Failures=$((Failures + 1))
else
  echo "ok dirdesign (exit 2, WS501)"
fi

# refuse <name> <message> <command...>: the command must exit 2 and say
# <message> on stderr.
refuse() {
  Name=$1
  Want=$2
  shift 2
  "$@" > /dev/null 2> "$SCRATCH/refuse.err"
  GotExit=$?
  if [ "$GotExit" -ne 2 ]; then
    echo "FAIL $Name: exit $GotExit, want 2" >&2
    Failures=$((Failures + 1))
  elif ! grep -q -e "$Want" "$SCRATCH/refuse.err"; then
    echo "FAIL $Name: stderr does not say '$Want'" >&2
    cat "$SCRATCH/refuse.err" >&2
    Failures=$((Failures + 1))
  else
    echo "ok $Name (exit 2)"
  fi
}

# A count with a sign is refused, not wrapped ("-1" cast to unsigned is
# 4294967295 pool threads). No --socket either, so a build that took the
# count would still stop before any pool exists.
refuse badworkers "--workers expects a count" "$SERVED" --workers -1
# Every other numeric flag reads its value the same way: --max-pending
# through atoi was 4294967295 pending requests, --drain-ms through
# strtoull a 2^64-1 ms drain.
refuse badpending "--max-pending expects a count" "$SERVED" --max-pending -1
refuse baddrain "--drain-ms expects a positive count" "$SERVED" --drain-ms -1
# The client reads its retry count with the same count parser.
refuse badretries "--retries expects a count between 0 and 1000" \
  "$CLIENT" --socket "$SOCK" --retries -1 --health

# Daemon counters: one NDJSON record, requests counted.
if "$CLIENT" --socket "$SOCK" --stats | grep -q '"type":"served-stats"'; then
  echo "ok stats"
else
  echo "FAIL stats: no served-stats record" >&2
  Failures=$((Failures + 1))
fi

# Health probe: answered in every state; a serving daemon reports ready.
if "$CLIENT" --socket "$SOCK" --health | grep -q '"state":"ready"'; then
  echo "ok health (ready)"
else
  echo "FAIL health: no ready served-health record" >&2
  Failures=$((Failures + 1))
fi

# Clean shutdown: exit 0, no socket file left behind.
"$CLIENT" --socket "$SOCK" --shutdown > /dev/null
if ! await "$SERVED_PID"; then
  echo "FAIL shutdown: daemon still running 30 s later; killed" >&2
  Failures=$((Failures + 1))
elif [ "$AwaitExit" -ne 0 ]; then
  echo "FAIL shutdown: daemon exit $AwaitExit" >&2
  cat "$SCRATCH/served.log" >&2
  Failures=$((Failures + 1))
elif [ -e "$SOCK" ]; then
  echo "FAIL shutdown: socket file leaked at $SOCK" >&2
  Failures=$((Failures + 1))
else
  echo "ok shutdown (exit 0, socket unlinked)"
fi
SERVED_PID=""

# Graceful drain (docs/SERVING.md): a second daemon instance, stopped
# with SIGTERM instead of the protocol shutdown, must drain within its
# deadline, exit 0, and unlink its socket — the systemd-stop path.
DRAINSOCK=$SCRATCH/drain.sock
"$SERVED" --socket "$DRAINSOCK" --workers 2 --drain-ms 2000 \
  > "$SCRATCH/drain.log" 2>&1 &
DRAIN_PID=$!
Tries=0
while ! grep -q "listening on" "$SCRATCH/drain.log" 2>/dev/null; do
  Tries=$((Tries + 1))
  if [ "$Tries" -gt 100 ]; then
    echo "FAIL drain: second daemon never started" >&2
    exit 1
  fi
  sleep 0.05
done
"$CLIENT" --socket "$DRAINSOCK" loopfree.blif --format json > /dev/null
kill -TERM "$DRAIN_PID"
if ! await "$DRAIN_PID"; then
  echo "FAIL drain: daemon still running 30 s after SIGTERM; killed" >&2
  Failures=$((Failures + 1))
elif [ "$AwaitExit" -ne 0 ]; then
  echo "FAIL drain: daemon exit $AwaitExit after SIGTERM" >&2
  cat "$SCRATCH/drain.log" >&2
  Failures=$((Failures + 1))
elif [ -e "$DRAINSOCK" ]; then
  echo "FAIL drain: socket file leaked at $DRAINSOCK" >&2
  Failures=$((Failures + 1))
elif ! grep -q "draining on signal" "$SCRATCH/drain.log"; then
  echo "FAIL drain: no draining line in the log" >&2
  cat "$SCRATCH/drain.log" >&2
  Failures=$((Failures + 1))
else
  echo "ok drain (SIGTERM, exit 0, socket unlinked)"
fi
DRAIN_PID=""

if [ "$Failures" -ne 0 ]; then
  echo "$Failures serving golden case(s) failed" >&2
  exit 1
fi
echo "all serving golden cases passed"
