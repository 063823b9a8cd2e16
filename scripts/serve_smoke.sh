#!/usr/bin/env bash
# End-to-end serving smoke (CI job serve-smoke; also runnable locally):
# train a bundle, boot mpiguardd, hit it with concurrent clients and a
# malformed-frame injection, and prove the daemon answers everything,
# survives the damage, and drains cleanly on SHUTDOWN.
#
# usage: serve_smoke.sh BUILDDIR
set -euo pipefail

BUILD=$(cd "${1:?usage: serve_smoke.sh BUILDDIR}" && pwd)
WORK=$(mktemp -d /tmp/mpiguard_serve_smoke.XXXXXX)
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

echo "== train a bundle to serve"
"$BUILD/mpiguard" train --detector ir2vec --dataset mbi:0.05@7 \
  --out "$WORK/gate.mpib" --cache-dir "$WORK/cache"

echo "== boot mpiguardd"
"$BUILD/mpiguardd" --model "$WORK/gate.mpib" --socket "$SOCK" \
  --queue 16 --batch 4 --cache-dir "$WORK/cache" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DAEMON_PID" || { cat "$WORK/daemon.log"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never listened"; cat "$WORK/daemon.log"; exit 1; }

echo "== concurrent client burst (BUSY retries allowed, all must be served)"
pids=()
for c in 1 2 3; do
  "$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
    --count 6 --retry-busy --quiet >"$WORK/client$c.out" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
for c in 1 2 3; do
  served=$(grep -c ' -> ' "$WORK/client$c.out")
  [ "$served" -eq 6 ] || { echo "client $c served $served/6"; cat "$WORK/client$c.out"; exit 1; }
done

echo "== malformed frame injection (daemon must answer ERROR and survive)"
python3 - "$SOCK" <<'EOF'
import socket, struct, sys

s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(struct.pack("<I", 16) + b"this is not MGWP")
reply = s.recv(65536)
assert reply, "daemon closed without an ERROR frame"
s.close()

# An implausible length prefix must also get an ERROR, not an allocation.
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(struct.pack("<I", 0xFFFFFFFF))
reply = s.recv(65536)
assert reply, "daemon closed without an ERROR frame"
s.close()
print("malformed frames rejected with ERROR frames")
EOF

echo "== daemon is still serving after the damage"
"$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
  --index 0 --quiet
"$BUILD/mpiguard-client" --socket "$SOCK" --stats | tee "$WORK/stats.out"
grep -q "protocol errors 2" "$WORK/stats.out"

echo "== graceful drain via wire SHUTDOWN"
"$BUILD/mpiguard-client" --socket "$SOCK" --shutdown --quiet
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "mpiguardd: stopped" "$WORK/daemon.log"
grep -q "0 request error(s)" "$WORK/daemon.log"

echo "serve_smoke: all checks passed"
