#!/usr/bin/env bash
# Runs the benchmark suite and emits BENCH_<date>.json in the repo root so
# the performance trajectory is trackable across PRs.
#
#   BENCH='BenchmarkSharded' BENCHTIME=2s scripts/bench.sh
#   BENCH='BenchmarkResultStore' scripts/bench.sh   # bounded result-store path
#   COUNT=3 scripts/bench.sh    # best of three per row: what to commit as the guard's reference
#
# BENCH filters benchmarks (default: all, including BenchmarkResultStore's
# ring write/wraparound/cursor-read suite, the ingest wire suite —
# BenchmarkWireDecode's zero-alloc JSON/binary batch decode,
# BenchmarkIngestAck's pooled ack rendering, BenchmarkIngest's per-codec
# decode→enqueue→epoch-assembly path with tuples/s, BenchmarkEpochAssembly's
# Acquire-only ns/tuple on the end-to-end benchmark's epoch shapes and on the
# ordering pass's worst case, BenchmarkTopologyConstruction's fleet of
# operators and generators built from nothing — and the durability
# suite: BenchmarkWALAppend per fsync policy, BenchmarkRecovery's
# snapshot-plus-suffix recovery of sessions 1k, 10k and 100k epochs old,
# and BenchmarkIngestDurable's WAL-enabled push path —
# plus BenchmarkQueryChurn's resident-query churn at 1k/10k queries with a
# heapB/query memory metric, and
# BenchmarkResultFanout's one-epoch-into-1/8/64-members rows,
# BenchmarkEpochFanout's compiled-program epoch on the epoch_fanout
# workload's shape, and the
# estimator rows — BenchmarkMLE's cold fits at t0 = 0 and 10⁶ and
# BenchmarkFlattenSteady's warm-started F-operator over a moving window),
# BENCHTIME sets -benchtime, COUNT sets -count and the row with the lowest
# ns/op of each benchmark is the one written (contention on a shared host
# only ever makes a run slower, so the fastest is the least disturbed — the
# same policy bench_guard.sh measures against). scripts/bench_guard.sh compares fresh
# BenchmarkEndToEnd + BenchmarkIngest* (BenchmarkIngestDurable as its ratio
# to BenchmarkWALAppend/fsync=always) + BenchmarkWire* +
# BenchmarkQueryChurn + BenchmarkResultFanout + BenchmarkEpochFanout +
# BenchmarkMLE + BenchmarkFlattenSteady + BenchmarkEpochAssembly +
# BenchmarkTopologyConstruction + BenchmarkJSONLinesExport +
# BenchmarkRecovery (age=100k as its ratio to age=1k) runs against the
# one committed
# BENCH_*.json and fails on >15% ns/op regression, or when it finds more
# than one: a PR that commits a new BENCH_<date>.json deletes the one it
# supersedes (git history keeps the trajectory).
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_$(date +%Y-%m-%d).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "${BENCH:-.}" -benchmem -benchtime "${BENCHTIME:-1s}" -count "${COUNT:-1}" . | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    if (name in best && best[name] <= ns + 0) next
    if (!(name in best)) order[++rows] = name
    best[name] = ns + 0
    bytes = "null"; allocs = "null"; mbs = "null"; tps = "null"; nspt = "null"
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "MB/s") mbs = $i
        if ($(i+1) == "tuples/s") tps = $i
        if ($(i+1) == "ns/tuple") nspt = $i
    }
    row[name] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"mb_per_s\": %s, \"tuples_per_s\": %s, \"ns_per_tuple\": %s}", name, iters, ns, bytes, allocs, mbs, tps, nspt)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", date
    for (r = 1; r <= rows; r++) printf "%s%s\n", row[order[r]], r < rows ? "," : ""
    print "  ]\n}"
}
' "$raw" > "$out"

echo "wrote $out"
