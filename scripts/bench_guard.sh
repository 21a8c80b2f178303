#!/usr/bin/env bash
# Guards the hot paths against performance regressions: runs
# BenchmarkEndToEnd (epoch execution), BenchmarkIngest* (per-codec
# push-gateway decode→enqueue→epoch assembly, BenchmarkIngestAck's pooled
# ack rendering, plus BenchmarkIngestDurable — the same push path with WAL
# durability at fsync=batch, guarded as its ratio to the same run's
# BenchmarkWALAppend/fsync=always, see below), BenchmarkWire* (the
# zero-alloc JSON/binary batch decoders), BenchmarkWALAppend/fsync=never
# (one 64-observation record appended with no fsync: the WAL's encode and
# write path alone), BenchmarkQueryChurn (submit/
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
# the ordering pass's worst case, and the rows that take the tie pass or
# rebuilt words: ids=shuffled, late, ids=interleaved and oneinstant;
# compared by ns/tuple, see below), BenchmarkTopologyConstruction (a
# session's fleet of operators and their generators built from nothing) and
# BenchmarkJSONLinesExport (the ndjson result encoder on short decimals, which
# wire.AppendJSONFloat renders with integer arithmetic, and on full-precision
# floats, which it hands to strconv — the second row guards what a miss
# costs), BenchmarkRecovery (crash recovery of a session 1k, 10k and 100k
# epochs old; see "Age policy").
#
# Comparison: one thing changed. The test binaries of the base revision and
# of the working tree are built once each (go test -c) and run alternately
# on this host in ROUNDS rounds (default 5): in each round every guarded
# benchmark runs on both sides back to back, which side goes first swapping
# from benchmark to benchmark and round to round. A row is over budget in a
# round when head's ns/op exceeds base's from the same round by more than
# BENCH_TOLERANCE_PCT percent (default 15); BenchmarkEpochAssembly rows
# compare their ns/tuple instead, which times Acquire alone — their ns/op
# also holds the Queue.Push calls that fill each epoch, which would dilute
# an assembly regression to about 60 % of its size. A row fails the pass
# only when it is over budget in a majority of the rounds both sides ran it
# in. Load on the host moves both sides of a round, so no committed
# baseline recorded on other hardware is needed: BENCH_*.json is the
# trajectory record, not the comparison. Rows present on one side only
# are reported and skipped, so adding a benchmark is safe.
#
# Base revision: BENCH_BASE if set; otherwise HEAD when the working tree
# differs from it (a change not yet committed is measured against its
# parent), else HEAD^ (a commit, or a pull request's merge commit, against
# its first parent — the merge base).
#
# Noise policy: contention on shared CI hardware is one-sided, and a
# majority of rounds can still be unlucky for one microsecond-scale row. So
# a failure in the full pass is not a verdict: every row that failed is
# re-run focused (alone, RETRY_COUNT more alternating rounds of
# RETRY_BENCHTIME each, after RETRY_COOLDOWN seconds), and only a row that
# is over budget in a majority of its focused rounds is a regression.
#
#   scripts/bench_guard.sh                      # working tree against its base
#   BENCH_BASE=origin/main scripts/bench_guard.sh
#   BENCH_TOLERANCE_PCT=25 ROUNDS=7 BENCHTIME=1s scripts/bench_guard.sh
#   RETRY_COUNT=7 RETRY_BENCHTIME=500ms RETRY_COOLDOWN=20 scripts/bench_guard.sh
#
# Disk policy: BenchmarkIngestDurable's push waits for one fsync (the
# group commit of a lone producer), so its ns/op is mostly the disk's, and
# fsync latency on shared hardware moves by 2× between runs. It is guarded
# as a ratio to BenchmarkWALAppend/fsync=always from the same run (one
# append and one fsync per op): a slower disk moves both, a second fsync per
# push or a slower push path moves only the first. The other WALAppend rows
# that fsync are not guarded themselves.
#
# Age policy: recovery restores a snapshot and replays at most about two
# snapshot intervals, so it must cost the same however old the session is.
# BenchmarkRecovery/age=100k is guarded as its ratio to the same run's
# age=1k, against a fixed limit of 1.5 rather than the base; the other
# age rows are that reference and are not guarded themselves.
#
# GOMAXPROCS suffixes ("-8") are stripped before matching.
set -euo pipefail
cd "$(dirname "$0")/.."

# One trajectory file: a PR that commits a new BENCH_<date>.json deletes the
# one it supersedes (scripts/bench.sh).
traj=$(git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null || true)
if [ -n "$traj" ] && [ "$(printf '%s\n' "$traj" | wc -l)" -ne 1 ]; then
    echo "bench_guard: exactly one BENCH_*.json may be committed, found" $traj "— delete the superseded one(s)" >&2
    exit 1
fi

tol="${BENCH_TOLERANCE_PCT:-15}"
rounds="${ROUNDS:-5}"
if [ -n "${BENCH_BASE:-}" ]; then
    base="$BENCH_BASE"
elif git diff --quiet HEAD --; then
    base=HEAD^
else
    base=HEAD
fi
base_rev=$(git rev-parse --verify --quiet "$base^{commit}") || {
    echo "bench_guard: base revision $base not found (a shallow clone needs fetch-depth ≥ 2)" >&2
    exit 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"
echo "bench_guard: building base $(git rev-parse --short "$base_rev") ($base) and head (working tree)"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .
declare -A dir=([base]="$work/base" [head]="$PWD")

# The guarded benchmarks, one run per entry: a round runs each on both sides
# back to back, so the two readings of a row are seconds apart.
guarded=(EndToEnd Ingest WALAppend Wire QueryChurn ResultFanout EpochFanout MLE FlattenSteady EpochAssembly TopologyConstruction JSONLinesExport Recovery)
durable=BenchmarkIngestDurable fsyncref=BenchmarkWALAppend/fsync=always
walrow=BenchmarkWALAppend/fsync=never
aged=BenchmarkRecovery/age=100k ageref=BenchmarkRecovery/age=1k
age_limit=1.5

# as_ratio: name-ns pairs in, guarded rows out — the IngestDurable row
# replaced by its ratio to the fsync reference (see "Disk policy"), the
# Recovery age=100k row by its ratio to age=1k (see "Age policy"), and the
# other WALAppend and Recovery rows dropped.
as_ratio() {
    awk -v d="$durable" -v r="$fsyncref" -v wr="$walrow" -v a="$aged" -v ar="$ageref" '
        $1 == r { ref = $2 }
        $1 == ar { aref = $2 }
        $1 !~ /^Benchmark(WALAppend|Recovery)\// || $1 == a || $1 == wr { name[++n] = $1; val[n] = $2 }
        END {
            for (i = 1; i <= n; i++) {
                if (name[i] == d) { if (ref > 0) print d, val[i] / ref }
                else if (name[i] == a) { if (aref > 0) print a, val[i] / aref }
                else print name[i], val[i]
            }
        }'
}

# run SIDE PATTERN BENCHTIME: one run of SIDE's binary from its own source
# directory, as "name ns/op" lines — "name ns/tuple" for the
# BenchmarkEpochAssembly rows.
run() {
    (cd "${dir[$1]}" && "$work/$1.test" -test.run '^$' -test.bench "$2" -test.benchtime "$3" -test.count 1 -test.timeout 30m) \
        | awk '/^Benchmark/ {
            sub(/-[0-9]+$/, "", $1); v = $3
            if ($1 ~ /^BenchmarkEpochAssembly\//) for (k = 5; k <= NF; k++) if ($k == "ns/tuple") v = $(k - 1)
            print $1, v
        }'
}

# rounds_of BENCHTIME N PREFIX PATTERN...: N rounds of every pattern on both
# sides, base first when round and pattern index add up even; each round
# leaves its guarded rows in PREFIX.<i>.base and PREFIX.<i>.head.
rounds_of() {
    local bt=$1 n=$2 prefix=$3 i j side order pattern
    shift 3
    for i in $(seq 1 "$n"); do
        : > "$prefix.raw.base"
        : > "$prefix.raw.head"
        j=0
        for pattern in "$@"; do
            order="base head"
            [ $(((i + j) % 2)) -eq 1 ] && order="head base"
            for side in $order; do
                run "$side" "$pattern" "$bt" >> "$prefix.raw.$side"
            done
            j=$((j + 1))
        done
        as_ratio < "$prefix.raw.base" > "$prefix.$i.base"
        as_ratio < "$prefix.raw.head" > "$prefix.$i.head"
    done
}

# judge PREFIX N: per row, the rounds head was over budget in, out of the
# rounds both sides ran it in, and the median head/base ratio; a line per
# row: "<FAIL|ok> name misses rounds median".
judge() {
    local i
    for i in $(seq 1 "$2"); do
        awk -v i="$i" 'FNR == NR { base[$1] = $2; next } ($1 in base) { print $1, i, base[$1], $2 }' "$1.$i.base" "$1.$i.head"
    done | awk -v tol="$tol" -v a="$aged" -v al="$age_limit" '
        {
            over = (($1 == a) ? $4 > al : $4 > $3 * (1 + tol / 100))
            k = ++n[$1]; miss[$1] += over
            r[$1, k] = ($1 == a) ? $4 : $4 / $3
        }
        END {
            for (name in n) {
                m = n[name]
                for (x = 2; x <= m; x++) {
                    v = r[name, x]
                    for (y = x - 1; y >= 1 && r[name, y] > v; y--) r[name, y + 1] = r[name, y]
                    r[name, y + 1] = v
                }
                med = (m % 2) ? r[name, (m + 1) / 2] : (r[name, m / 2] + r[name, m / 2 + 1]) / 2
                print (2 * miss[name] > m ? "FAIL" : "ok"), name, miss[name], m, med
            }
        }' | sort -k2
}

echo "bench_guard: $rounds alternating rounds at ${BENCHTIME:-500ms} per row (tolerance ${tol}%)"
rounds_of "${BENCHTIME:-500ms}" "$rounds" "$work/full" "${guarded[@]/#/^Benchmark}"
judge "$work/full" "$rounds" > "$work/verdict"

# Rows that only one side ran.
for i in $(seq 1 "$rounds"); do cut -d' ' -f1 "$work/full.$i.base" "$work/full.$i.head"; done \
    | sort | uniq -c | awk -v n="$((2 * rounds))" '$1 < n { print "bench_guard: " $2 " did not run on both sides every round; skipping" }'

if [ ! -s "$work/verdict" ]; then
    echo "bench_guard: no comparable benchmarks found" >&2
    exit 1
fi

status=0
while read -r verdict name misses m med <&3; do
    if [ "$name" = "$aged" ]; then
        what=$(printf '%.3f × age=1k (limit %.2f)' "$med" "$age_limit")
    else
        what=$(printf 'head/base %.3f' "$med")
    fi
    if [ "$verdict" = ok ]; then
        echo "bench_guard: ok $name: $what, over budget in $misses of $m rounds"
        continue
    fi
    echo "bench_guard: $name over budget in $misses of $m rounds ($what); re-running focused (${RETRY_COUNT:-5} rounds)"
    # Let the cgroup's CPU burst budget refill after the long full pass —
    # the retry must measure the benchmark, not the throttle debt the suite
    # left behind.
    sleep "${RETRY_COOLDOWN:-10}"
    # A per-segment-anchored regex (escaping regex metacharacters like the
    # '+' in "enqueue+drain"), so exactly this row re-runs.
    pattern=$(printf '%s' "$name" | sed -e 's/[.[\*^$()+?{|]/\\&/g' -e 's|^|^|' -e 's|$|$|' -e 's|/|$/^|g')
    if [ "$name" = "$durable" ]; then
        pattern='^BenchmarkIngestDurable$|^BenchmarkWALAppend$/^fsync=always$'
    fi
    if [ "$name" = "$aged" ]; then
        pattern='^BenchmarkRecovery$/^age=(1k|100k)$'
    fi
    rounds_of "${RETRY_BENCHTIME:-300ms}" "${RETRY_COUNT:-5}" "$work/retry" "$pattern"
    line=$(judge "$work/retry" "${RETRY_COUNT:-5}" | awk -v n="$name" '$2 == n')
    if [ -z "$line" ]; then
        echo "bench_guard: REGRESSION $name: its focused retry produced no result (pattern $pattern)" >&2
        status=1
        continue
    fi
    read -r verdict _ misses m med <<< "$line"
    if [ "$name" = "$aged" ]; then
        what=$(printf '%.3f × age=1k (limit %.2f)' "$med" "$age_limit")
    else
        what=$(printf 'head/base %.3f' "$med")
    fi
    if [ "$verdict" = ok ]; then
        echo "bench_guard: ok $name on retry: $what, over budget in $misses of $m rounds"
    else
        echo "bench_guard: REGRESSION $name: $what, over budget in $misses of $m focused rounds (limit +${tol}%)"
        status=1
    fi
done 3< "$work/verdict"
exit "$status"
