#!/usr/bin/env bash
# End-to-end crash-safety smoke test of the campaign daemon (mode=serve):
#
#   1. run a sweep campaign directly (mode=sweep report=) as ground truth;
#   2. run the same campaign through a clean daemon and capture the
#      cached-resubmission reply (the canonical result bytes);
#   3. start a fresh daemon, submit the campaign, `kill -9` the daemon
#      mid-flight, restart it on the same state directory, and wait for
#      the recovered job to finish;
#   4. assert the resumed daemon's cached reply is byte-identical to the
#      clean daemon's, and that the per-point latencies match the direct
#      run digit for digit — as must the latency of a kind=simulate
#      topology=ring_circulant job the clean daemon ran;
#   5. run a long simulation at low priority on a single worker, preempt
#      it with a high-priority job mid-run, and assert the preempted
#      job's result is byte-identical to an unpreempted control run;
#   6. drive a tiny-threshold ledger through auto-compaction, kill -9
#      the daemon, plant a stale compaction temp file, restart, and
#      assert the compacted ledger replays to the same cached bytes.
#
# Usage: scripts/serve_smoke.sh [build-dir]     (default: build)
#
# Exits non-zero on the first failed step.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="${BUILD}/examples/nocsprint_cli"
CLIENT="${BUILD}/examples/serve_client"

for bin in "$CLI" "$CLIENT"; do
  if [[ ! -x "$bin" ]]; then
    echo "serve_smoke: missing binary $bin (build the examples first)"
    exit 1
  fi
done

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

# The campaign: 10 sweep points — long enough that kill -9 lands
# mid-flight, short enough for CI.
CAMPAIGN=(kind=sweep level=8 rates=0.05:0.05:0.5 seed=7)
DIRECT=(mode=sweep level=8 rates=0.05:0.05:0.5 seed=7)
# One off-mesh scenario, run directly and as a kind=simulate job.
RING=(topology=ring_circulant level=8)

start_daemon() {  # start_daemon <state-dir> <log> [extra daemon args...]
  local dir="$1" log="$2"
  shift 2
  "$CLI" mode=serve serve_dir="$dir" serve_port=0 \
    serve_port_file="$dir/port" serve_workers=2 "$@" >"$log" 2>&1 &
  daemon_pid=$!
}

wait_port() {  # wait_port <state-dir>
  for _ in $(seq 1 100); do
    [[ -s "$1/port" ]] && return 0
    sleep 0.1
  done
  echo "serve_smoke: daemon never wrote $1/port"
  return 1
}

latencies() {  # latencies <file> — per-point latency digits, in order
  grep -oE '"avg_packet_latency": ?[0-9eE+.-]+' "$1" | tr -d ' '
}

echo "==== direct runs (ground truth) ===="
"$CLI" "${DIRECT[@]}" report="$work/direct.json" >/dev/null
"$CLI" mode=simulate "${RING[@]}" report="$work/ring_direct.json" >/dev/null

echo "==== clean daemon run ===="
start_daemon "$work/clean" "$work/clean.log"
wait_port "$work/clean"
"$CLIENT" port_file="$work/clean/port" op=submit "${CAMPAIGN[@]}" \
  wait=true timeout_ms=120000 >"$work/clean_wait.txt"
grep -q '"state":"done"' "$work/clean_wait.txt" || {
  echo "serve_smoke: clean campaign did not finish"; cat "$work/clean_wait.txt"
  exit 1
}
# Identical resubmission: served from the cache, zero cycles.
"$CLIENT" port_file="$work/clean/port" op=submit "${CAMPAIGN[@]}" \
  >"$work/clean_cached.txt"
grep -q '"cached":true' "$work/clean_cached.txt" || {
  echo "serve_smoke: resubmission was not served from the cache"
  cat "$work/clean_cached.txt"; exit 1
}
# A topology job: serve reaches every scenario the CLI simulates, through
# the same pipeline, so its latency matches the direct run digit for digit.
"$CLIENT" port_file="$work/clean/port" op=submit kind=simulate "${RING[@]}" \
  wait=true timeout_ms=120000 >"$work/ring_wait.txt"
grep -q '"state":"done"' "$work/ring_wait.txt" || {
  echo "serve_smoke: topology job did not finish"; cat "$work/ring_wait.txt"
  exit 1
}
"$CLIENT" port_file="$work/clean/port" op=drain >/dev/null
wait "$daemon_pid"
daemon_pid=""

echo "==== crash run: submit, kill -9 mid-campaign ===="
start_daemon "$work/crash" "$work/crash1.log"
wait_port "$work/crash"
"$CLIENT" port_file="$work/crash/port" op=submit "${CAMPAIGN[@]}" \
  >"$work/crash_submit.txt"
grep -q '"job":"job-1"' "$work/crash_submit.txt" || {
  echo "serve_smoke: submit not accepted"; cat "$work/crash_submit.txt"
  exit 1
}
sleep 0.4
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "==== restart on the same ledger, wait for recovery ===="
rm -f "$work/crash/port"
start_daemon "$work/crash" "$work/crash2.log"
wait_port "$work/crash"
"$CLIENT" port_file="$work/crash/port" op=wait job=job-1 \
  timeout_ms=120000 >"$work/crash_wait.txt"
grep -q '"state":"done"' "$work/crash_wait.txt" || {
  echo "serve_smoke: recovered campaign did not finish"
  cat "$work/crash_wait.txt" "$work/crash2.log"; exit 1
}
"$CLIENT" port_file="$work/crash/port" op=submit "${CAMPAIGN[@]}" \
  >"$work/crash_cached.txt"
grep -q '"cached":true' "$work/crash_cached.txt" || {
  echo "serve_smoke: recovered result did not seed the cache"
  cat "$work/crash_cached.txt"; exit 1
}
"$CLIENT" port_file="$work/crash/port" op=drain >/dev/null
wait "$daemon_pid"
daemon_pid=""

echo "==== bit-identity checks ===="
# The cached replies carry the full campaign result: the kill -9 run must
# reproduce the uninterrupted run byte for byte.
if ! cmp -s "$work/clean_cached.txt" "$work/crash_cached.txt"; then
  echo "serve_smoke: resumed result differs from the clean daemon run"
  diff "$work/clean_cached.txt" "$work/crash_cached.txt" || true
  exit 1
fi
# And both must match the direct mode=sweep run digit for digit.
latencies "$work/direct.json" >"$work/direct_lat.txt"
latencies "$work/crash_cached.txt" >"$work/serve_lat.txt"
if ! cmp -s "$work/direct_lat.txt" "$work/serve_lat.txt"; then
  echo "serve_smoke: daemon latencies differ from the direct run"
  paste "$work/direct_lat.txt" "$work/serve_lat.txt" || true
  exit 1
fi
[[ -s "$work/direct_lat.txt" ]] || {
  echo "serve_smoke: no latencies extracted"; exit 1
}
latencies "$work/ring_direct.json" >"$work/ring_direct_lat.txt"
latencies "$work/ring_wait.txt" >"$work/ring_serve_lat.txt"
if [[ ! -s "$work/ring_direct_lat.txt" ]] ||
   ! cmp -s "$work/ring_direct_lat.txt" "$work/ring_serve_lat.txt"; then
  echo "serve_smoke: topology job latency differs from the direct run"
  paste "$work/ring_direct_lat.txt" "$work/ring_serve_lat.txt" || true
  exit 1
fi

echo "==== preemption run: high-priority job interrupts a long simulation ===="
# The sweep campaign finishes too quickly on a fast machine to preempt
# reliably, so this phase uses a long kind=simulate job (~1.5 s).  First
# a clean control run through its own daemon captures the canonical
# bytes; then one worker runs the same job at low priority, a
# high-priority submission evicts it mid-run (the poll on "cycles"
# guarantees it is genuinely simulating), it checkpoints, resumes, and
# must still produce the control bytes.
SIM=(kind=simulate level=8 seed=7 warmup=2000 measure=800000 injection=0.2)
start_daemon "$work/preclean" "$work/preclean.log" serve_workers=1
wait_port "$work/preclean"
"$CLIENT" port_file="$work/preclean/port" op=submit "${SIM[@]}" \
  wait=true timeout_ms=120000 >"$work/preclean_wait.txt"
grep -q '"state":"done"' "$work/preclean_wait.txt" || {
  echo "serve_smoke: control simulation did not finish"
  cat "$work/preclean_wait.txt" "$work/preclean.log"; exit 1
}
"$CLIENT" port_file="$work/preclean/port" op=submit "${SIM[@]}" \
  >"$work/preclean_cached.txt"
"$CLIENT" port_file="$work/preclean/port" op=drain >/dev/null
wait "$daemon_pid"
daemon_pid=""

start_daemon "$work/preempt" "$work/preempt.log" serve_workers=1
wait_port "$work/preempt"
"$CLIENT" port_file="$work/preempt/port" op=submit "${SIM[@]}" \
  priority=low >"$work/preempt_submit.txt"
grep -q '"job":"job-1"' "$work/preempt_submit.txt" || {
  echo "serve_smoke: low-priority submit not accepted"
  cat "$work/preempt_submit.txt"; exit 1
}
# Wait until the simulation is demonstrably running (reported cycles >
# 0), so the high-priority submission below always has a victim.
for _ in $(seq 1 200); do
  "$CLIENT" port_file="$work/preempt/port" op=job job=job-1 \
    >"$work/preempt_poll.txt" || true
  grep -qE '"cycles":[1-9]' "$work/preempt_poll.txt" && break
  sleep 0.05
done
grep -qE '"cycles":[1-9]' "$work/preempt_poll.txt" || {
  echo "serve_smoke: low-priority simulation never reported progress"
  cat "$work/preempt_poll.txt" "$work/preempt.log"; exit 1
}
"$CLIENT" port_file="$work/preempt/port" op=submit kind=selftest tasks=1 \
  sleep_ms=1 priority=high wait=true timeout_ms=60000 \
  >"$work/preempt_high.txt"
grep -q '"state":"done"' "$work/preempt_high.txt" || {
  echo "serve_smoke: high-priority job did not finish"
  cat "$work/preempt_high.txt"; exit 1
}
"$CLIENT" port_file="$work/preempt/port" op=wait job=job-1 \
  timeout_ms=120000 >"$work/preempt_wait.txt"
grep -q '"state":"done"' "$work/preempt_wait.txt" || {
  echo "serve_smoke: preempted simulation did not finish"
  cat "$work/preempt_wait.txt" "$work/preempt.log"; exit 1
}
preemptions=$("$CLIENT" port_file="$work/preempt/port" op=status |
  grep -oE '"preemptions":[0-9]+' | cut -d: -f2)
if [[ "${preemptions:-0}" -lt 1 ]]; then
  echo "serve_smoke: expected at least one preemption, saw '${preemptions:-none}'"
  exit 1
fi
"$CLIENT" port_file="$work/preempt/port" op=submit "${SIM[@]}" \
  >"$work/preempt_cached.txt"
if ! cmp -s "$work/preclean_cached.txt" "$work/preempt_cached.txt"; then
  echo "serve_smoke: preempted-then-resumed result differs from the control"
  diff "$work/preclean_cached.txt" "$work/preempt_cached.txt" || true
  exit 1
fi
"$CLIENT" port_file="$work/preempt/port" op=drain >/dev/null
wait "$daemon_pid"
daemon_pid=""

echo "==== compaction run: tiny threshold, kill -9, stale temp file ===="
start_daemon "$work/compact" "$work/compact1.log" \
  serve_ledger_compact_bytes=4096
wait_port "$work/compact"
for i in 1 2 3 4 5 6; do
  "$CLIENT" port_file="$work/compact/port" op=submit kind=selftest \
    tasks=4 sleep_ms="$i" wait=true timeout_ms=60000 >/dev/null
done
compactions=$("$CLIENT" port_file="$work/compact/port" op=status |
  grep -oE '"compactions":[0-9]+' | cut -d: -f2)
if [[ "${compactions:-0}" -lt 1 ]]; then
  echo "serve_smoke: ledger never compacted (saw '${compactions:-none}')"
  exit 1
fi
"$CLIENT" port_file="$work/compact/port" op=submit kind=selftest \
  tasks=4 sleep_ms=1 >"$work/compact_cached_before.txt"
grep -q '"cached":true' "$work/compact_cached_before.txt" || {
  echo "serve_smoke: compacted ledger lost a finished job pre-kill"
  cat "$work/compact_cached_before.txt"; exit 1
}
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
# A crash inside a *later* compaction would leave a temp file; plant a
# garbage one to prove startup sweeps it and replays the real log.
echo "interrupted-compaction-garbage" >"$work/compact/ledger.nsrl.compact.tmp"
rm -f "$work/compact/port"
start_daemon "$work/compact" "$work/compact2.log" \
  serve_ledger_compact_bytes=4096
wait_port "$work/compact"
"$CLIENT" port_file="$work/compact/port" op=submit kind=selftest \
  tasks=4 sleep_ms=1 >"$work/compact_cached_after.txt"
if ! cmp -s "$work/compact_cached_before.txt" "$work/compact_cached_after.txt"; then
  echo "serve_smoke: compacted ledger replayed differently after kill -9"
  diff "$work/compact_cached_before.txt" "$work/compact_cached_after.txt" || true
  exit 1
fi
if [[ -e "$work/compact/ledger.nsrl.compact.tmp" ]]; then
  echo "serve_smoke: stale compaction temp file survived restart"
  exit 1
fi
"$CLIENT" port_file="$work/compact/port" op=drain >/dev/null
wait "$daemon_pid"
daemon_pid=""

echo "serve_smoke: crash-resumed campaign is bit-identical to the direct run"
echo "serve_smoke: preempted simulation matched byte-for-byte; compaction survived kill -9"
