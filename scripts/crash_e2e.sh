#!/usr/bin/env bash
# crash_e2e.sh — kill-and-restart durability end-to-end:
#
#   1. start craqrd with -data-dir, an external-source default session and a
#      snapshot every 2 epochs,
#   2. submit a query, push observation batches and step 12 epochs (six
#      snapshots, WAL segments compacted behind them), page results,
#   3. push filler past one and a half WAL segments, so the log rotates onto
#      a zero-filled spare and has the next spare prepared,
#   4. SIGKILL the daemon mid-flight (no drain, no final fsync beyond
#      policy): the last segment ends in zeros and a spare is on disk,
#   5. restart on the same -data-dir,
#   6. assert the session recovered from a snapshot — same epochs, same
#      query, fewer WAL records replayed than were written, the replayed
#      state verified against the newest snapshot, no torn tail, the spare
#      deleted — and the result cursor resumes exactly where the pre-crash
#      consumer stopped; then step once more, and after a graceful stop the
#      log directory holds only segments trimmed to their records.
#
# Needs only bash + curl + python3 (for JSON asserts). Run from the repo
# root: scripts/crash_e2e.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18990}"
BASE="http://localhost:$PORT"
DATA="$(mktemp -d "${TMPDIR:-/tmp}/craqr-crash-e2e.XXXXXX")"
BIN="$DATA/craqrd"
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$DATA"
}
trap cleanup EXIT

json() { python3 -c "import json,sys; print(json.load(sys.stdin)$1)"; }

wait_up() {
  for _ in $(seq 1 100); do
    curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "crash_e2e: craqrd did not come up on $BASE" >&2
  exit 1
}

start_daemon() {
  "$BIN" -addr ":$PORT" -data-dir "$DATA/state" -fsync always -source external -snapshot-every 2 &
  PID=$!
  wait_up
}

echo "crash_e2e: building craqrd"
go build -o "$BIN" ./cmd/craqrd

echo "crash_e2e: starting craqrd (data-dir=$DATA/state, fsync=always)"
start_daemon

# Submit a query and feed twelve epochs of observations.
QID=$(curl -fsS -X POST -d 'ACQUIRE rain FROM RECT(0,0,8,8) RATE 5' \
  "$BASE/v1/sessions/default/queries" | json "['id']")
for e in $(seq 0 11); do
  curl -fsS -X POST -H 'Content-Type: application/json' -d @- \
    "$BASE/v1/sessions/default/ingest" >/dev/null <<EOF
{"attr":"rain","watermark":$((e + 1)),"observations":[
  {"t":$e.1,"x":1,"y":1,"value":1},{"t":$e.3,"x":2,"y":2,"value":2},
  {"t":$e.5,"x":3,"y":3,"value":3},{"t":$e.7,"x":4,"y":4,"value":4}]}
EOF
  curl -fsS -X POST "$BASE/v1/sessions/default/step" >/dev/null
done

EPOCHS=$(curl -fsS "$BASE/v1/sessions/default" | json "['epochs']")
[ "$EPOCHS" -eq 12 ] || { echo "crash_e2e: pre-crash epochs=$EPOCHS, want 12" >&2; exit 1; }

# A consumer pages partway through the stream, remembering its cursor and
# what remains unread.
PAGE=$(curl -fsS "$BASE/v1/sessions/default/results/$QID?limit=3")
CURSOR=$(echo "$PAGE" | json "['nextCursor']")
REST_BEFORE=$(curl -fsS "$BASE/v1/sessions/default/results/$QID?cursor=$CURSOR" | json "['tuples']")

# Filler: bodies of 10000 observations outside the region. Validation
# rejects them, so results do not move, but every push is journaled raw —
# about 540 KB of WAL a body against 8 MiB segments. Past half a segment the
# log zero-fills wal-spare.tmp; wait_spare waits for it to be written and
# then a moment for its fsync.
WALDIR="$DATA/state/sessions/default/wal"
SEGBYTES=$((8 << 20))
python3 -c '
import sys
obs = ",".join("{\"t\":12.5,\"x\":-1,\"y\":1,\"value\":%d}" % i for i in range(10000))
sys.stdout.write("{\"attr\":\"rain\",\"observations\":[%s]}" % obs)' > "$DATA/filler.json"
filler() {
  for _ in $(seq 1 "$1"); do
    curl -fsS -X POST -H 'Content-Type: application/json' --data-binary @"$DATA/filler.json" \
      "$BASE/v1/sessions/default/ingest" >/dev/null
  done
}
size() { stat -c %s "$1" 2>/dev/null || echo 0; }
wait_spare() {
  for _ in $(seq 1 100); do
    if [ "$(size "$WALDIR/wal-spare.tmp")" -eq "$SEGBYTES" ]; then
      sleep 1
      return 0
    fi
    sleep 0.1
  done
  echo "crash_e2e: no spare segment was prepared past half a segment" >&2
  exit 1
}
echo "crash_e2e: pushing filler past one and a half WAL segments"
filler 8
wait_spare
filler 16
wait_spare
LASTSEG=$(ls "$WALDIR"/wal-*.seg | sort | tail -1)
[ "$(size "$LASTSEG")" -eq "$SEGBYTES" ] || { echo "crash_e2e: $(basename "$LASTSEG") is $(size "$LASTSEG") bytes; the log did not rotate onto the spare" >&2; exit 1; }
WRITTEN=$(curl -fsS "$BASE/v1/sessions/default/status" | json "['durability']['walRecords']")

echo "crash_e2e: SIGKILL craqrd (pid $PID) with cursor=$CURSOR outstanding"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "crash_e2e: restarting on the same data-dir"
start_daemon

SESSION=$(curl -fsS "$BASE/v1/sessions/default")
EPOCHS2=$(echo "$SESSION" | json "['epochs']")
RECOVERED=$(echo "$SESSION" | json "['recovered']")
[ "$EPOCHS2" -eq "$EPOCHS" ] || { echo "crash_e2e: recovered epochs=$EPOCHS2, want $EPOCHS" >&2; exit 1; }
[ "$RECOVERED" = "True" ] || { echo "crash_e2e: session does not report recovered" >&2; exit 1; }
DUR=$(curl -fsS "$BASE/v1/sessions/default/status")
REPLAYED=$(echo "$DUR" | json "['durability']['replayedRecords']")
VERIFIED=$(echo "$DUR" | json "['durability']['snapshotVerified']")
[ "$REPLAYED" -lt "$WRITTEN" ] || { echo "crash_e2e: replayed $REPLAYED of $WRITTEN WAL records; recovery did not start from a snapshot" >&2; exit 1; }
[ "$VERIFIED" = "True" ] || { echo "crash_e2e: the replayed state was not verified against the newest snapshot" >&2; exit 1; }
TORN=$(echo "$DUR" | json "['durability']['tornTail']")
[ "$TORN" = "False" ] || { echo "crash_e2e: recovery read the zero-filled tail of $(basename "$LASTSEG") as torn" >&2; exit 1; }
[ ! -e "$WALDIR/wal-spare.tmp" ] || { echo "crash_e2e: the spare left by the kill survived the restart" >&2; exit 1; }

# The pre-crash cursor resumes mid-stream with an identical unread suffix.
REST_AFTER=$(curl -fsS "$BASE/v1/sessions/default/results/$QID?cursor=$CURSOR" | json "['tuples']")
if [ "$REST_BEFORE" != "$REST_AFTER" ]; then
  echo "crash_e2e: resumed result stream differs from pre-crash read" >&2
  echo "before: $REST_BEFORE" >&2
  echo "after:  $REST_AFTER" >&2
  exit 1
fi

# The recovered session keeps working: another epoch of pushes lands.
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"attr":"rain","watermark":13,"observations":[{"t":12.2,"x":1,"y":2,"value":5}]}' \
  "$BASE/v1/sessions/default/ingest" >/dev/null
curl -fsS -X POST "$BASE/v1/sessions/default/step" >/dev/null
EPOCHS3=$(curl -fsS "$BASE/v1/sessions/default" | json "['epochs']")
[ "$EPOCHS3" -eq $((EPOCHS + 1)) ] || { echo "crash_e2e: post-recovery step failed" >&2; exit 1; }

kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null || true
PID=""

# A graceful stop closes the log: no spare, every segment trimmed to its
# records (the framed bytes walBytes counted).
[ -z "$(ls "$WALDIR" | grep -v '\.seg$')" ] || { echo "crash_e2e: a graceful stop left $(ls "$WALDIR" | grep -v '\.seg$')" >&2; exit 1; }
[ "$(size "$LASTSEG")" -lt "$SEGBYTES" ] || { echo "crash_e2e: a graceful stop left $(basename "$LASTSEG") untrimmed" >&2; exit 1; }
echo "crash_e2e: OK — kill -9 recovery resumed $EPOCHS epochs from a snapshot ($REPLAYED of $WRITTEN WAL records replayed, no torn tail) and the open cursor"
