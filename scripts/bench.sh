#!/usr/bin/env bash
# Runs the benchmark suite and emits BENCH_<date>.json in the repo root so
# the performance trajectory is trackable across PRs.
#
#   BENCH='BenchmarkSharded' BENCHTIME=2s scripts/bench.sh
#   BENCH='BenchmarkResultStore' scripts/bench.sh   # bounded result-store path
#
# BENCH filters benchmarks (default: all, including BenchmarkResultStore's
# ring write/wraparound/cursor-read suite, the ingest wire suite —
# BenchmarkWireDecode's zero-alloc JSON/binary batch decode,
# BenchmarkIngestAck's pooled ack rendering, BenchmarkIngest's per-codec
# decode→enqueue→epoch-assembly path with tuples/s, BenchmarkEpochAssembly's
# Acquire-only ns/tuple on the end-to-end benchmark's epoch shapes — and the durability
# suite: BenchmarkWALAppend per fsync policy, BenchmarkRecovery's
# cold-start replay, and BenchmarkIngestDurable's WAL-enabled push path —
# plus BenchmarkQueryChurn's resident-query churn matrix, shared vs
# unshared at 1k/10k queries with a heapB/query memory metric, and
# BenchmarkResultFanout's one-epoch-into-1/8/64-members rows,
# BenchmarkEpochFanout's program-vs-graph-walk epoch on the epoch_fanout
# workload's shape, and the
# estimator rows — BenchmarkMLE's cold fits at t0 = 0 and 10⁶ and
# BenchmarkFlattenSteady's warm-started F-operator over a moving window),
# BENCHTIME sets -benchtime. scripts/bench_guard.sh compares fresh
# BenchmarkEndToEnd + BenchmarkIngest* + BenchmarkWire* +
# BenchmarkQueryChurn + BenchmarkResultFanout + BenchmarkEpochFanout +
# BenchmarkMLE + BenchmarkFlattenSteady runs against the one committed
# BENCH_*.json and fails on >15% ns/op regression, or when it finds more
# than one: a PR that commits a new BENCH_<date>.json deletes the one it
# supersedes (git history keeps the trajectory).
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_$(date +%Y-%m-%d).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "${BENCH:-.}" -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "{"; printf "  \"date\": \"%s\",\n  \"benchmarks\": [\n", date; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    bytes = "null"; allocs = "null"; mbs = "null"; tps = "null"; nspt = "null"
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "MB/s") mbs = $i
        if ($(i+1) == "tuples/s") tps = $i
        if ($(i+1) == "ns/tuple") nspt = $i
    }
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"mb_per_s\": %s, \"tuples_per_s\": %s, \"ns_per_tuple\": %s}", name, iters, ns, bytes, allocs, mbs, tps, nspt
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
