#!/usr/bin/env bash
# cluster_e2e.sh — multi-node routing and kill-one-node handoff end-to-end:
#
#   1. start three craqrd nodes in cluster mode (-node-name, shared -data-dir,
#      per-node session cap 3) and a craqr-gw gateway in front,
#   2. create five sessions through the gateway — more than any single
#      node's cap, so the demo only works if the ring actually spreads them,
#   3. submit a query and push observations into every session, step epochs,
#      and remember each session's full result history,
#   4. SIGKILL the node hosting the probe session,
#   5. assert the gateway detects the death within the failure-detection
#      window, hands the displaced sessions to survivors (each recovers from
#      its snapshots plus the WAL after them), and
#      every session's recovered history is byte-identical to the pre-kill
#      read — then keeps accepting new epochs.
#
# Needs only bash + curl + python3 (for JSON asserts). Run from the repo
# root: scripts/cluster_e2e.sh [base-port]
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${1:-19080}"
GW_PORT="$BASE_PORT"
GW="http://localhost:$GW_PORT"
DATA="$(mktemp -d "${TMPDIR:-/tmp}/craqr-cluster-e2e.XXXXXX")"
NODE_PIDS=()
GW_PID=""
cleanup() {
  [ -n "$GW_PID" ] && kill -9 "$GW_PID" 2>/dev/null || true
  for p in "${NODE_PIDS[@]:-}"; do
    [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$DATA"
}
trap cleanup EXIT

json() { python3 -c "import json,sys; print(json.load(sys.stdin)$1)"; }

wait_ok() { # wait_ok URL [expect-status]
  local want="${2:-ok}"
  for _ in $(seq 1 100); do
    if got=$(curl -fsS "$1/v1/healthz" 2>/dev/null | json "['status']" 2>/dev/null); then
      [ "$got" = "$want" ] && return 0
    fi
    sleep 0.1
  done
  echo "cluster_e2e: $1 never reported healthz status=$want" >&2
  exit 1
}

echo "cluster_e2e: building craqrd + craqr-gw"
go build -o "$DATA/craqrd" ./cmd/craqrd
go build -o "$DATA/craqr-gw" ./cmd/craqr-gw

# Three nodes, shared durability volume, three sessions max per node.
NODE_URLS=()
for i in 0 1 2; do
  port=$((BASE_PORT + 1 + i))
  "$DATA/craqrd" -addr ":$port" -node-name "n$i" -data-dir "$DATA/state" \
    -fsync always -source external -sessions 3 >"$DATA/n$i.log" 2>&1 &
  NODE_PIDS[$i]=$!
  NODE_URLS[$i]="http://localhost:$port"
done
for i in 0 1 2; do wait_ok "${NODE_URLS[$i]}"; done

echo "cluster_e2e: starting craqr-gw (fail-after=2, interval=200ms)"
"$DATA/craqr-gw" -addr ":$GW_PORT" \
  -nodes "$(IFS=,; echo "${NODE_URLS[*]}")" \
  -check-interval 200ms -check-timeout 1s -fail-after 2 -up-after 1 \
  >"$DATA/gw.log" 2>&1 &
GW_PID=$!
wait_ok "$GW"

# Five sessions through the gateway: strictly more than one node's cap of 3.
# The names are chosen so the ring spreads them 2/1/2 across n0/n1/n2 and
# the post-kill split stays within the survivors' caps (placement is a pure
# function of the member set — see internal/cluster ring tests).
SESSIONS=(sensor-fleet-0 sensor-fleet-1 sensor-fleet-2 sensor-fleet-4 sensor-fleet-5)
declare -A QID HISTORY
for s in "${SESSIONS[@]}"; do
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"name\":\"$s\",\"source\":\"external\",\"tolerance\":0.5}" \
    "$GW/v1/sessions" >/dev/null
  QID[$s]=$(curl -fsS -X POST -d 'ACQUIRE rain FROM RECT(0,0,8,8) RATE 5' \
    "$GW/v1/sessions/$s/queries" | json "['id']")
  for e in 0 1 2; do
    curl -fsS -X POST -H 'Content-Type: application/json' -d @- \
      "$GW/v1/sessions/$s/ingest" >/dev/null <<EOF
{"attr":"rain","watermark":$((e + 1)),"observations":[
  {"t":$e.1,"x":1,"y":1,"value":1},{"t":$e.3,"x":2,"y":2,"value":2},
  {"t":$e.5,"x":3,"y":3,"value":3},{"t":$e.7,"x":4,"y":4,"value":4}]}
EOF
    curl -fsS -X POST "$GW/v1/sessions/$s/step" >/dev/null
  done
  HISTORY[$s]=$(curl -fsS "$GW/v1/sessions/$s/results/${QID[$s]}?limit=1000" | json "['tuples']")
done

N=$(curl -fsS "$GW/v1/sessions" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)))')
[ "$N" -eq 5 ] || { echo "cluster_e2e: gateway lists $N sessions, want 5 (> per-node cap 3)" >&2; exit 1; }

# Find the node hosting the probe session from the gateway's cluster
# status and kill it.
PROBE="${SESSIONS[0]}"
STATUS=$(curl -fsS "$GW/v1/cluster/status")
VICTIM=$(echo "$STATUS" | python3 -c "
import json, sys
doc = json.load(sys.stdin)
for n in doc['nodes']:
    if '$PROBE' in (n.get('live') or []):
        print(n['name']); break
")
[ -n "$VICTIM" ] || { echo "cluster_e2e: no node reports session $PROBE live" >&2; exit 1; }
VIDX="${VICTIM#n}"
echo "cluster_e2e: SIGKILL node $VICTIM (pid ${NODE_PIDS[$VIDX]}) hosting $PROBE"
kill -9 "${NODE_PIDS[$VIDX]}"
wait "${NODE_PIDS[$VIDX]}" 2>/dev/null || true
NODE_PIDS[$VIDX]=""

# The gateway must notice within the detection window (200ms × 2 + slack)
# and report degraded while it hands sessions off.
DEADLINE=$((SECONDS + 10))
until [ "$(curl -fsS "$GW/v1/healthz" | json "['status']")" = degraded ]; do
  [ "$SECONDS" -lt "$DEADLINE" ] || { echo "cluster_e2e: gateway never reported degraded" >&2; exit 1; }
  sleep 0.1
done
echo "cluster_e2e: gateway degraded — waiting for handoff to survivors"

# Every session must come back on a survivor with byte-identical history.
# During the handoff the gateway answers retryable 503s, so poll.
for s in "${SESSIONS[@]}"; do
  DEADLINE=$((SECONDS + 15))
  while :; do
    if AFTER=$(curl -fsS "$GW/v1/sessions/$s/results/${QID[$s]}?limit=1000" 2>/dev/null | json "['tuples']" 2>/dev/null); then
      break
    fi
    [ "$SECONDS" -lt "$DEADLINE" ] || { echo "cluster_e2e: session $s never came back after the kill" >&2; exit 1; }
    sleep 0.2
  done
  if [ "$AFTER" != "${HISTORY[$s]}" ]; then
    echo "cluster_e2e: recovered history for $s differs from pre-kill read" >&2
    echo "before: ${HISTORY[$s]}" >&2
    echo "after:  $AFTER" >&2
    exit 1
  fi
done

# The pool keeps working: another epoch lands on the handed-off session.
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"attr":"rain","watermark":4,"observations":[{"t":3.2,"x":1,"y":2,"value":5}]}' \
  "$GW/v1/sessions/$PROBE/ingest" >/dev/null
curl -fsS -X POST "$GW/v1/sessions/$PROBE/step" >/dev/null
EPOCHS=$(curl -fsS "$GW/v1/sessions/$PROBE" | json "['epochs']")
[ "$EPOCHS" -eq 4 ] || { echo "cluster_e2e: post-handoff step failed (epochs=$EPOCHS, want 4)" >&2; exit 1; }

# No handoff left dangling.
PENDING=$(curl -fsS "$GW/v1/cluster/status" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["pendingHandoffs"]))')
[ "$PENDING" -eq 0 ] || { echo "cluster_e2e: $PENDING handoffs still pending" >&2; exit 1; }

echo "cluster_e2e: OK — 5 sessions on 3 capped nodes, kill -9 of $VICTIM handed $PROBE to a survivor with byte-identical history"
