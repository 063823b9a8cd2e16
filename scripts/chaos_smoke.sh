#!/usr/bin/env bash
# Chaos smoke for the serving path (CI job chaos-smoke; also runnable
# locally): boot mpiguardd with fault injection ARMED and prove the
# failure model end to end, over a real AF_UNIX socket with the real
# CLI client — the same invariants tests/chaos_serve_test.cpp proves
# in-process:
#
#   1. recoverable transport faults (short reads/writes, EINTR) at high
#      rates: every request is still served, zero request errors;
#   2. a slow-loris peer trickling half a frame is reaped by the io
#      deadline instead of wedging a connection thread;
#   3. deadline shedding: requests queued behind a slow batch are
#      answered EXPIRED, not served stale, and the watchdog counts the
#      slow batch — all visible in the STATS robustness counters;
#   4. after all of it, a clean SHUTDOWN drains and the daemon exits 0.
#
# usage: chaos_smoke.sh BUILDDIR
set -euo pipefail

BUILD=$(cd "${1:?usage: chaos_smoke.sh BUILDDIR}" && pwd)
WORK=$(mktemp -d /tmp/mpiguard_chaos_smoke.XXXXXX)
SOCK="$WORK/d.sock"
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" || { cat "$WORK/daemon.log"; return 1; }
    sleep 0.1
  done
  echo "daemon never listened"; cat "$WORK/daemon.log"; return 1
}

echo "== train a bundle to serve"
"$BUILD/mpiguard" train --detector ir2vec --dataset mbi:0.05@7 \
  --out "$WORK/gate.mpib" --cache-dir "$WORK/cache"

echo "== phase 1: daemon under recoverable transport faults"
"$BUILD/mpiguardd" --model "$WORK/gate.mpib" --socket "$SOCK" \
  --queue 4 --batch 4 --cache-dir "$WORK/cache" \
  --io-timeout 1000 --idle-timeout 2000 \
  --faults "seed=42,serve.recv.short:p=0.2,serve.send.short:p=0.2,serve.recv.eintr:p=0.1" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_for_socket
grep -q "fault injection ARMED" "$WORK/daemon.log"

echo "== concurrent burst through the injected faults (all must be served)"
pids=()
for c in 1 2 3; do
  "$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
    --count 8 --retry-busy --quiet >"$WORK/client$c.out" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
for c in 1 2 3; do
  served=$(grep -c ' -> ' "$WORK/client$c.out")
  [ "$served" -eq 8 ] || { echo "client $c served $served/8"; cat "$WORK/client$c.out"; exit 1; }
done

echo "== slow loris trickling half a frame (must be reaped, not wedged)"
python3 - "$SOCK" <<'EOF'
import socket, sys, time

s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b"\x20\x00")  # 2 of the 4 length-prefix bytes, then silence
s.settimeout(10.0)
t0 = time.monotonic()
data = s.recv(1)  # the io deadline (1s) must close the connection
assert data == b"", f"expected EOF from the reaper, got {data!r}"
elapsed = time.monotonic() - t0
assert elapsed < 8.0, f"reap took {elapsed:.1f}s - deadline did not fire"
s.close()
print(f"loris reaped after {elapsed:.2f}s")
EOF

echo "== robustness counters prove the chaos actually happened"
"$BUILD/mpiguard-client" --socket "$SOCK" --stats | tee "$WORK/stats1.out"
grep -Eq 'faults fired [1-9]' "$WORK/stats1.out"
grep -Eq 'io timeouts [1-9]' "$WORK/stats1.out"
grep -Eq 'reaped [1-9]' "$WORK/stats1.out"
grep -q 'request errors 0' "$WORK/stats1.out"

echo "== graceful drain via wire SHUTDOWN (phase 1)"
"$BUILD/mpiguard-client" --socket "$SOCK" --shutdown --quiet
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "mpiguardd: stopped" "$WORK/daemon.log"
grep -q "robustness:" "$WORK/daemon.log"

echo "== phase 2: slow batches, shed deadlines, watchdog (env-var spec)"
MPIGUARD_FAULTS="serve.batch.slow:ms=300" \
  "$BUILD/mpiguardd" --model "$WORK/gate.mpib" --socket "$SOCK" \
  --queue 16 --batch 1 --cache-dir "$WORK/cache" \
  --watchdog-ms 100 \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_for_socket
grep -q "fault injection ARMED" "$WORK/daemon.log"

# Four pipelined requests, 50 ms budget each, one-request batches each
# slowed to 300 ms: the first is served slow, the rest expire in the
# queue and must come back EXPIRED (client exit 4), never stale.
st=0
"$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
  --count 4 --deadline-ms 50 --retry-busy --quiet \
  >"$WORK/deadline.out" 2>&1 || st=$?
[ "$st" -eq 4 ] || { echo "expected exit 4 (EXPIRED), got $st"; cat "$WORK/deadline.out"; exit 1; }
grep -q "shed EXPIRED" "$WORK/deadline.out"

"$BUILD/mpiguard-client" --socket "$SOCK" --stats | tee "$WORK/stats2.out"
grep -Eq 'deadline sheds [1-9]' "$WORK/stats2.out"
grep -Eq 'watchdog trips [1-9]' "$WORK/stats2.out"
grep -Eq 'faults fired [1-9]' "$WORK/stats2.out"

echo "== a generous deadline is served normally by the same daemon"
"$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
  --index 0 --deadline-ms 30000 --retry-busy --quiet

echo "== graceful drain via wire SHUTDOWN (phase 2)"
"$BUILD/mpiguard-client" --socket "$SOCK" --shutdown --quiet
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "mpiguardd: stopped" "$WORK/daemon.log"

echo "chaos_smoke: all checks passed"
