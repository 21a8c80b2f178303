#!/usr/bin/env bash
# Guards the hot paths against performance regressions: runs
# BenchmarkEndToEnd (epoch execution), BenchmarkIngest* (per-codec
# push-gateway decode→enqueue→epoch assembly, BenchmarkIngestAck's pooled
# ack rendering, plus BenchmarkIngestDurable — the same push path with WAL
# durability at fsync=batch, guarded as its ratio to the same run's
# BenchmarkWALAppend/fsync=always, see below), BenchmarkWire* (the
# zero-alloc JSON/binary batch decoders), BenchmarkQueryChurn (submit/
# delete/epoch cycles at 1k and 10k resident queries on shared subplans —
# the rows guard the multi-query dedup win), BenchmarkResultFanout
# (one 4096-tuple epoch into 1, 8 and 64 members of one subplan — the rows
# guard that a member costs no ring write of its own), BenchmarkEpochFanout
# (one epoch of bench/'s epoch_fanout shape — 512 residents on 65 subplans,
# two sorted 2048-tuple attribute runs — through the compiled position
# program), BenchmarkMLE (one
# cold fit at n = 128/1000/10000 on windows at t0 = 0 and 10⁶ — the pairs
# guard that a fit's cost does not grow with session age),
# BenchmarkFlattenSteady (one F-operator over a moving window with fresh
# tuples per batch, the daemon's shape), BenchmarkEpochAssembly (the serial
# prefix of an epoch on the end-to-end benchmark's shapes, plus onebucket,
# the ordering pass's worst case), BenchmarkTopologyConstruction (a
# session's fleet of operators and their generators built from nothing) and
# BenchmarkJSONLinesExport (the ndjson result encoder on short decimals, which
# wire.AppendJSONFloat renders with integer arithmetic, and on full-precision
# floats, which it hands to strconv — the second row guards what a miss
# costs), BenchmarkRecovery (crash recovery of a session 1k, 10k and 100k
# epochs old; see "Age policy") and compares ns/op per sub-benchmark
# against the one committed BENCH_*.json trajectory file, failing when
# any sub-benchmark is more than BENCH_TOLERANCE_PCT percent slower
# (default 15). Benchmarks present in only one side are reported and
# skipped, so adding a benchmark before its first committed baseline is
# safe.
#
# Noise policy: contention on shared CI hardware is one-sided (it only
# ever makes things slower), and over the full multi-minute suite it
# routinely exceeds the tolerance on microsecond-scale benchmarks — the
# later a benchmark runs, the more accumulated GC and cgroup-throttle
# debt it inherits. So a miss in the full pass is not a verdict: every
# benchmark that came in over budget is re-run focused (alone, best of
# RETRY_COUNT short repetitions, near-idle process) and only a benchmark
# that stays over its limit in its own dedicated run is a regression.
# This compares capability — the fastest the code actually ran — the
# same policy as shard_guard.sh.
#
#   scripts/bench_guard.sh                      # guard against the committed baseline
#   BENCH_TOLERANCE_PCT=25 scripts/bench_guard.sh
#   RETRY_COUNT=7 RETRY_BENCHTIME=500ms RETRY_COOLDOWN=20 scripts/bench_guard.sh
#
# Disk policy: BenchmarkIngestDurable's push waits for one fsync (the
# group commit of a lone producer), so its ns/op is mostly the disk's, and
# fsync latency on shared hardware moves by 2× between runs. It is guarded
# as a ratio to BenchmarkWALAppend/fsync=always from the same run (one
# append and one fsync per op): a slower disk moves both, a second fsync per
# push or a slower push path moves only the first. The WALAppend rows are
# that reference and are not guarded themselves.
#
# Age policy: recovery restores a snapshot and replays at most about two
# snapshot intervals, so it must cost the same however old the session is.
# BenchmarkRecovery/age=100k is guarded as its ratio to the same run's
# age=1k, against a fixed limit of 1.5 rather than the baseline; the other
# age rows are that reference and are not guarded themselves.
#
# GOMAXPROCS suffixes ("-8") are stripped before matching so baselines
# recorded on different machines still line up. Benchmarks present in only
# one side are reported and skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

# One trajectory file: a PR that commits a new BENCH_<date>.json deletes the
# one it supersedes (scripts/bench.sh), so there is no "newest" to pick.
# Tracked files only: an untracked BENCH_<today>.json left by a local
# scripts/bench.sh run is not a commit (outside git, every file counts).
base=$(git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null || true)
if [ -z "$base" ]; then
    echo "bench_guard: no BENCH_*.json baseline committed; nothing to guard"
    exit 0
fi
if [ "$(printf '%s\n' "$base" | wc -l)" -ne 1 ]; then
    echo "bench_guard: exactly one BENCH_*.json may be committed, found" $base "— delete the superseded one(s)" >&2
    exit 1
fi
tol="${BENCH_TOLERANCE_PCT:-15}"
echo "bench_guard: comparing against $base (tolerance ${tol}%)"

raw=$(mktemp) basevals=$(mktemp) curvals=$(mktemp) failing=$(mktemp) retryvals=$(mktemp)
trap 'rm -f "$raw" "$basevals" "$curvals" "$failing" "$retryvals"' EXIT

go test -run '^$' -bench 'BenchmarkEndToEnd|BenchmarkIngest|BenchmarkWALAppend|BenchmarkWire|BenchmarkQueryChurn|BenchmarkResultFanout|BenchmarkEpochFanout|BenchmarkMLE|BenchmarkFlattenSteady|BenchmarkEpochAssembly|BenchmarkTopologyConstruction|BenchmarkJSONLinesExport|BenchmarkRecovery' -benchtime "${BENCHTIME:-1s}" -count "${COUNT:-1}" . | tee "$raw"

# Baseline pairs (name ns_per_op) from the JSON written by bench.sh.
sed -n 's/.*"name": "\(Benchmark\(EndToEnd\|Ingest\|WALAppend\|Wire\|QueryChurn\|ResultFanout\|EpochFanout\|MLE\|FlattenSteady\|EpochAssembly\|TopologyConstruction\|JSONLinesExport\|Recovery\)[^"]*\)".*"ns_per_op": \([0-9.eE+]*\).*/\1 \3/p' "$base" \
    | sed 's/-[0-9]* / /' > "$basevals"
# Current pairs from the benchmark output, best ns/op per name.
awk '/^Benchmark(EndToEnd|Ingest|WALAppend|Wire|QueryChurn|ResultFanout|EpochFanout|MLE|FlattenSteady|EpochAssembly|TopologyConstruction|JSONLinesExport|Recovery)/ {if (!($1 in best) || $3 < best[$1]) best[$1] = $3} END {for (n in best) print n, best[n]}' "$raw" \
    | sed 's/-[0-9]* / /' > "$curvals"

if [ ! -s "$curvals" ]; then
    echo "bench_guard: guarded benchmarks produced no results" >&2
    exit 1
fi

# as_ratio file: replaces the IngestDurable row by its ratio to the file's
# fsync reference and drops the WALAppend rows (see "Disk policy"), and
# replaces the Recovery age=100k row by its ratio to age=1k and drops the
# other Recovery rows (see "Age policy").
durable=BenchmarkIngestDurable fsyncref=BenchmarkWALAppend/fsync=always
aged=BenchmarkRecovery/age=100k ageref=BenchmarkRecovery/age=1k
age_limit=1.5
as_ratio() {
    awk -v d="$durable" -v r="$fsyncref" -v a="$aged" -v ar="$ageref" '
        $1 == r { ref = $2 }
        $1 == ar { aref = $2 }
        $1 !~ /^Benchmark(WALAppend|Recovery)\// || $1 == a { name[++n] = $1; val[n] = $2 }
        END {
            for (i = 1; i <= n; i++) {
                if (name[i] == d) { if (ref > 0) print d, val[i] / ref }
                else if (name[i] == a) { if (aref > 0) print a, val[i] / aref }
                else print name[i], val[i]
            }
        }' "$1" > "$1.new"
    mv "$1.new" "$1"
}
as_ratio "$basevals"
as_ratio "$curvals"

# over_budget basevals curvals -> lines "name cur_ns" for benchmarks past
# their limit (benchmarks missing on either side are skipped here and
# reported in the final verdict).
over_budget() {
    awk -v tol="$tol" -v a="$aged" -v al="$age_limit" '
        FNR == NR { base[$1] = $2; next }
        $1 == a { if ($2 > al) print $1, $2; next }
        ($1 in base) && $2 > base[$1] * (1 + tol / 100) { print $1, $2 }
    ' "$1" "$2"
}

over_budget "$basevals" "$curvals" > "$failing"

if [ -s "$failing" ]; then
    echo "bench_guard: $(wc -l < "$failing") benchmark(s) over budget in the full pass; re-running each focused (best of ${RETRY_COUNT:-5})"
    while read -r name _; do
        # Let the cgroup's CPU burst budget refill after the long full
        # pass — the retry must measure the benchmark, not the throttle
        # debt the suite left behind.
        sleep "${RETRY_COOLDOWN:-10}"
        # The stored name has the GOMAXPROCS suffix stripped; turn it into
        # a per-segment-anchored regex (escaping regex metacharacters like
        # the '+' in "enqueue+drain") so exactly this benchmark re-runs.
        pattern=$(printf '%s' "$name" | sed -e 's/[.[\*^$()+?{|]/\\&/g' -e 's|^|^|' -e 's|$|$|' -e 's|/|$/^|g')
        if [ "$name" = "$durable" ]; then
            pattern='^BenchmarkIngestDurable$|^BenchmarkWALAppend$/^fsync=always$'
        fi
        if [ "$name" = "$aged" ]; then
            pattern='^BenchmarkRecovery$/^age=(1k|100k)$'
        fi
        bestline=$(go test -run '^$' -bench "$pattern" -benchtime "${RETRY_BENCHTIME:-300ms}" -count "${RETRY_COUNT:-5}" . \
            | awk '$0 ~ /^Benchmark/ {sub(/-[0-9]+$/, "", $1); if (!($1 in best) || $3 < best[$1]) best[$1] = $3} END {for (n in best) print n, best[n]}' \
            > "$retryvals"; as_ratio "$retryvals"; awk -v n="$name" '$1 == n' "$retryvals")
        if [ -n "$bestline" ]; then
            echo "bench_guard: retry ${bestline}"
            awk -v repl="$bestline" 'BEGIN {split(repl, r, " ")} $1 == r[1] {if (r[2] + 0 < $2 + 0) $2 = r[2]} {print}' "$curvals" > "$curvals.new"
            mv "$curvals.new" "$curvals"
        else
            echo "bench_guard: retry of $name produced no result (pattern $pattern)" >&2
        fi
    done < "$failing"
fi

awk -v tol="$tol" -v d="$durable" -v a="$aged" -v al="$age_limit" '
    FNR == NR { base[$1] = $2; next }
    { cur[$1] = $2 }
    END {
        status = 0
        checked = 0
        for (n in cur) {
            if (n == a) {
                checked++
                verdict = "ok"
                if (cur[n] > al) {
                    verdict = "REGRESSION"
                    status = 1
                }
                printf "bench_guard: %s %s: %.3f × age=1k (limit %.2f)\n", verdict, n, cur[n], al
                continue
            }
            if (!(n in base)) {
                printf "bench_guard: %s has no baseline entry; skipping\n", n
                continue
            }
            checked++
            lim = base[n] * (1 + tol / 100)
            if (n == d) {
                verdict = "ok"
                if (cur[n] > lim) {
                    verdict = "REGRESSION"
                    status = 1
                }
                printf "bench_guard: %s %s: %.3f × fsync (baseline %.3f, limit %.3f)\n", verdict, n, cur[n], base[n], lim
            } else if (cur[n] > lim) {
                printf "bench_guard: REGRESSION %s: %.0f ns/op > %.0f allowed (baseline %.0f, +%s%%)\n", n, cur[n], lim, base[n], tol
                status = 1
            } else {
                printf "bench_guard: ok %s: %.0f ns/op (baseline %.0f)\n", n, cur[n], base[n]
            }
        }
        if (checked == 0) {
            print "bench_guard: no comparable benchmarks found" > "/dev/stderr"
            status = 1
        }
        exit status
    }' "$basevals" "$curvals"
