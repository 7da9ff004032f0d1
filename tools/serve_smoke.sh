#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the DSE daemon, as CI runs it.
#
# Starts defacto_served with live metrics, fires 50 mixed requests from
# defacto_client over one connection — plain explores across kernels,
# strategies, and platforms, warm repeats, one ping, one request with an
# already-lapsed deadline, one with an unknown platform — then asserts
# the reply-status ledger balances and the OpenMetrics exposition scrapes
# clean (openmetrics_check). Then 5,000 sequential ping connections, one
# open at a time, must leave the daemon's VmSize (within 64 MiB) and
# thread count unchanged (Linux only: read from /proc). Last, the daemon
# must shut down with exit 0.
#
# usage: serve_smoke.sh <defacto_served> <defacto_client> <openmetrics_check>
set -u

SERVED=${1:?usage: serve_smoke.sh <defacto_served> <defacto_client> <openmetrics_check>}
CLIENT=${2:?usage: serve_smoke.sh <defacto_served> <defacto_client> <openmetrics_check>}
OMCHECK=${3:?usage: serve_smoke.sh <defacto_served> <defacto_client> <openmetrics_check>}
WORK=$(mktemp -d)
SOCK="$WORK/dse.sock"
PROM="$WORK/metrics.prom"
trap 'kill $(jobs -p) 2>/dev/null; rm -rf "$WORK"' EXIT

"$SERVED" --socket="$SOCK" --threads=2 --metrics-prom="$PROM" \
  --metrics-interval=0.1 2>"$WORK/served.log" &
DAEMON=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK" >&2; cat "$WORK/served.log" >&2; exit 1; }

# The 50-request mix: 47 explores cycling kernel x strategy x platform
# (with warm repeats by construction), 1 ping, 1 past-deadline, 1
# unknown-platform.
{
  KERNELS=(FIR MM PAT JAC SOBEL)
  STRATEGIES=(guided random hillclimb)
  PLATFORMS=(wildstar-pipelined wildstar-nonpipelined)
  for I in $(seq 0 46); do
    K=${KERNELS[$((I % 5))]}
    S=${STRATEGIES[$((I % 3))]}
    P=${PLATFORMS[$((I % 2))]}
    echo "{\"id\":\"r$I\",\"kernel\":\"$K\",\"strategy\":\"$S\",\"platform\":\"$P\",\"budget\":25}"
  done
  echo '{"id":"ping","cmd":"ping"}'
  # One nanosecond of deadline: lapsed before the batch worker can wake.
  echo '{"id":"doomed","kernel":"FIR","deadline_s":0.000000001}'
  echo '{"id":"lost","kernel":"FIR","platform":"atlantis"}'
} >"$WORK/requests.jsonl"

"$CLIENT" --socket="$SOCK" --stdin <"$WORK/requests.jsonl" >"$WORK/replies.jsonl"
if [ $? -ne 0 ]; then
  echo "FAIL: client transport error" >&2
  cat "$WORK/served.log" >&2
  exit 1
fi

count_status() { grep -c "\"status\":\"$1\"" "$WORK/replies.jsonl"; }

FAIL=0
TOTAL=$(wc -l <"$WORK/replies.jsonl")
OK=$(count_status ok)
DEGRADED=$(count_status degraded)
PONG=$(count_status pong)
DEADLINE=$(count_status deadline)
ERROR=$(count_status error)
[ "$TOTAL" -eq 50 ] || { echo "FAIL: expected 50 replies, got $TOTAL" >&2; FAIL=1; }
[ $((OK + DEGRADED)) -eq 47 ] || { echo "FAIL: expected 47 ok/degraded, got $((OK + DEGRADED))" >&2; FAIL=1; }
[ "$PONG" -eq 1 ] || { echo "FAIL: expected 1 pong, got $PONG" >&2; FAIL=1; }
[ "$DEADLINE" -eq 1 ] || { echo "FAIL: expected 1 deadline, got $DEADLINE" >&2; FAIL=1; }
[ "$ERROR" -eq 1 ] || { echo "FAIL: expected 1 error, got $ERROR" >&2; FAIL=1; }
grep -q '"id":"doomed","status":"deadline"\|"status":"deadline","id":"doomed"' "$WORK/replies.jsonl" ||
  { echo "FAIL: the past-deadline request did not answer deadline" >&2; FAIL=1; }
grep -q "unknown platform 'atlantis'" "$WORK/replies.jsonl" ||
  { echo "FAIL: the unknown-platform request did not name its platform" >&2; FAIL=1; }
if [ $FAIL -ne 0 ]; then
  echo "--- replies ---" >&2
  cat "$WORK/replies.jsonl" >&2
  exit 1
fi

# The live exposition must exist and scrape clean.
sleep 0.3 # one sampling interval, so serve gauges reflect the burst
if ! [ -s "$PROM" ]; then
  echo "FAIL: no OpenMetrics exposition at $PROM" >&2
  exit 1
fi
if ! "$OMCHECK" "$PROM" >"$WORK/omcheck.out" 2>&1; then
  echo "FAIL: openmetrics_check rejected the exposition" >&2
  cat "$WORK/omcheck.out" >&2
  exit 1
fi
grep -q 'serve_queue_depth' "$PROM" ||
  { echo "FAIL: exposition lacks the serve gauges" >&2; exit 1; }
# The burst explored five kernels, so the session store holds some.
grep -q '^defacto_cache_sessions [1-9]' "$PROM" &&
  grep -q '^defacto_cache_session_hits_total ' "$PROM" ||
  { echo "FAIL: exposition lacks the kernel-session metrics" >&2; exit 1; }

# A client that connects once per request must not grow the daemon.
CONNS=5000
status_field() { awk -v f="$1:" '$1 == f { print $2 }' "/proc/$DAEMON/status"; }
if [ -r "/proc/$DAEMON/status" ]; then
  VM_BEFORE=$(status_field VmSize)
  THREADS_BEFORE=$(status_field Threads)
  for I in $(seq 1 $CONNS); do
    "$CLIENT" --socket="$SOCK" --ping --expect=pong >/dev/null ||
      { echo "FAIL: ping connection $I failed" >&2; exit 1; }
  done
  VM_AFTER=$(status_field VmSize)
  THREADS_AFTER=$(status_field Threads)
  [ $((VM_AFTER - VM_BEFORE)) -lt 65536 ] ||
    { echo "FAIL: $CONNS sequential connections grew VmSize from $VM_BEFORE to $VM_AFTER kB" >&2; exit 1; }
  [ "$THREADS_AFTER" -eq "$THREADS_BEFORE" ] ||
    { echo "FAIL: $CONNS sequential connections changed the thread count from $THREADS_BEFORE to $THREADS_AFTER" >&2; exit 1; }
  CONN_NOTE="$CONNS sequential connections (VmSize $VM_BEFORE -> $VM_AFTER kB, $THREADS_AFTER threads)"
else
  CONN_NOTE="sequential-connection check skipped (no /proc)"
fi

"$CLIENT" --socket="$SOCK" --shutdown --expect=bye >/dev/null ||
  { echo "FAIL: shutdown request failed" >&2; exit 1; }
wait "$DAEMON"
STATUS=$?
if [ $STATUS -ne 0 ]; then
  echo "FAIL: daemon exited $STATUS" >&2
  cat "$WORK/served.log" >&2
  exit 1
fi

echo "serve smoke: 50 requests ($OK ok, $DEGRADED degraded, 1 pong, 1 deadline, 1 error), clean scrape, $CONN_NOTE, clean shutdown"
