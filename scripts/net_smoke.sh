#!/usr/bin/env bash
# End-to-end client/server smoke: starts fieldrep_server on a unix
# socket, drives it with fieldrep_client (catalog + generic round trip),
# scrapes live metrics with fieldrep_stats --connect, and verifies a
# clean SIGTERM shutdown. Intended for CI (including sanitizer builds)
# and local sanity checks.
#
# Usage: scripts/net_smoke.sh [build-dir] [database-file]
#
#   build-dir      CMake build tree (default: build)
#   database-file  database to serve; created via examples/persistent_store
#                  when missing (default: a fresh temp file)
set -euo pipefail

BUILD_DIR="${1:-build}"
DB_FILE="${2:-}"

SERVER="$BUILD_DIR/tools/fieldrep_server"
CLIENT="$BUILD_DIR/tools/fieldrep_client"
STATS="$BUILD_DIR/tools/fieldrep_stats"
for bin in "$SERVER" "$CLIENT" "$STATS"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 1
  fi
done

WORK_DIR="$(mktemp -d /tmp/fieldrep_net_smoke.XXXXXX)"
SERVER_PID=""
cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

if [[ -z "$DB_FILE" ]]; then
  DB_FILE="$WORK_DIR/smoke.db"
  if [[ -x "$BUILD_DIR/examples/persistent_store" ]]; then
    "$BUILD_DIR/examples/persistent_store" "$DB_FILE" > /dev/null
  fi
fi

SOCKET="$WORK_DIR/server.sock"
"$SERVER" --listen "unix:$SOCKET" --max-sessions 8 "$DB_FILE" \
  > "$WORK_DIR/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the listening line (sanitizer builds start slowly).
for _ in $(seq 1 100); do
  grep -q "^listening on " "$WORK_DIR/server.log" 2>/dev/null && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "error: server exited during startup" >&2
    cat "$WORK_DIR/server.log" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q "^listening on " "$WORK_DIR/server.log" || {
  echo "error: server never started listening" >&2
  cat "$WORK_DIR/server.log" >&2
  exit 1
}

echo "== catalog =="
"$CLIENT" --connect "unix:$SOCKET" --catalog

echo "== smoke round trip =="
"$CLIENT" --connect "unix:$SOCKET" --smoke

echo "== live metrics scrape (prometheus) =="
"$STATS" --connect "unix:$SOCKET" --format=prometheus > "$WORK_DIR/metrics.prom"
head -n 6 "$WORK_DIR/metrics.prom"
grep -q "^# TYPE fieldrep_net_requests_total counter" "$WORK_DIR/metrics.prom"
# Lock-table metrics (DESIGN.md §14) must flow through every format.
grep -q "^# TYPE fieldrep_lock_acquisitions_total counter" "$WORK_DIR/metrics.prom"
grep -q "^# TYPE fieldrep_lock_conflicts_total counter" "$WORK_DIR/metrics.prom"
grep -q "^fieldrep_lock_held " "$WORK_DIR/metrics.prom"

echo "== live metrics scrape (text) =="
"$STATS" --connect "unix:$SOCKET" > "$WORK_DIR/metrics.txt"
grep -q "fieldrep_lock_wait_ns_total" "$WORK_DIR/metrics.txt"
# Read-ahead settings (DESIGN.md §9): the on/off switch and the pool budget.
grep -q "fieldrep_pool_read_ahead_enabled" "$WORK_DIR/metrics.txt"
grep -q "fieldrep_pool_read_ahead_budget" "$WORK_DIR/metrics.txt"

echo "== live metrics scrape (json) =="
"$STATS" --connect "unix:$SOCKET" --format=json > "$WORK_DIR/metrics.json"
python3 - "$WORK_DIR/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["version"] == 1, doc.get("version")
names = {m["name"] for m in doc["metrics"]}
for required in (
    "fieldrep_pool_fetches_total",
    "fieldrep_pool_read_batches_total",
    "fieldrep_pool_write_batches_total",
    "fieldrep_pool_read_ahead_enabled",
    "fieldrep_pool_read_ahead_budget",
    "fieldrep_net_sessions_total",
    "fieldrep_net_requests_total",
    "fieldrep_net_parks_total",
    "fieldrep_net_txn_aborts_total",
    "fieldrep_wal_group_batches_total",
    "fieldrep_lock_acquisitions_total",
    "fieldrep_lock_conflicts_total",
    "fieldrep_lock_aborts_total",
    "fieldrep_lock_wait_ns_total",
    "fieldrep_lock_held",
    "fieldrep_lock_waiters",
):
    assert required in names, f"missing {required}: {sorted(names)}"
print(f"ok: {len(doc['metrics'])} metrics over the wire")
EOF

echo "== clean shutdown =="
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
if [[ "$EXIT_CODE" -ne 0 ]]; then
  echo "error: server exited $EXIT_CODE on SIGTERM" >&2
  cat "$WORK_DIR/server.log" >&2
  exit 1
fi
if [[ -e "$SOCKET" ]]; then
  echo "error: socket not unlinked on shutdown" >&2
  exit 1
fi

echo "net smoke ok"
