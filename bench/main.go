// Command bench is CrAQR's end-to-end benchmark: it builds cmd/craqrd, runs
// it as a child process and drives it over loopback HTTP with one pusher
// connection and one subscriber connection, through four workloads that each
// load a different part of the path (see README.md). One invocation measures
// one workload:
//
//	bash bench/run.sh --workload ingest_flood --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the gated end-to-end metrics; --trace 1 reports the
// per-layer metrics from an in-process traced pass plus one live round. The
// last line of standard output is one JSON object with the result.
// Without --workload every workload runs in both modes; -aa N is the A/A
// tool that sets the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the gated metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_tuples_per_s", "tuples/s"},
	{"ack_p50_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"server_cpu_us_per_tuple", "us"},
	{"server_rss_mb", "MB"},
	{"recovery_s", "s"},
}

// perLayer lists the ungated metrics in BENCHMARK.json order. Every
// *_ns_per_tuple is per ingested tuple, so the columns of one workload add.
var perLayer = []metricDef{
	{"wire.decode_ns_per_tuple", "ns"}, {"wire.bytes_per_tuple", "B"}, {"wire.decode_errors", "count"},
	{"server.http_self_ns_per_req", "ns"}, {"server.admit_ns_per_req", "ns"}, {"server.ack_ns_per_req", "ns"}, {"server.throttled", "count"},
	{"http.transport_ns_per_req", "ns"}, {"ledger.attributed_frac", "ratio"},
	{"ledger.push_layers_frac", "ratio"}, {"ledger.epoch_layers_frac", "ratio"}, {"ledger.read_layers_frac", "ratio"}, {"ledger.wal_push_frac", "ratio"},
	{"ingest.push_ns_per_tuple", "ns"}, {"ingest.acquire_ns_per_tuple", "ns"}, {"ingest.accepted", "count"}, {"ingest.dropped", "count"},
	{"ingest.late_dropped", "count"}, {"ingest.duplicates", "count"}, {"ingest.pending_max", "count"},
	{"wal.append_ns_per_tuple", "ns"}, {"wal.commit_ns_per_push", "ns"}, {"wal.bytes_per_tuple", "B"}, {"wal.records", "count"},
	{"wal.segments", "count"}, {"wal.replay_ns_per_tuple", "ns"}, {"wal.recover_tuples_per_s", "tuples/s"},
	{"sched.wait_p50_ms", "ms"}, {"sched.wait_total_ms", "ms"},
	{"planner.submit_us_per_query", "us"}, {"planner.cache_hits", "count"}, {"planner.cache_misses", "count"},
	{"topology.ingest_self_ns_per_tuple", "ns"}, {"topology.subplans", "count"}, {"topology.shared_queries", "count"},
	{"topology.operators", "count"}, {"topology.out_per_in", "ratio"},
	{"pmat.flatten_ns_per_tuple", "ns"}, {"pmat.thin_ns_per_tuple", "ns"},
	{"stream.store_ns_per_tuple", "ns"}, {"stream.read_ns_per_tuple", "ns"}, {"stream.retention_drops", "count"},
	{"export.encode_ns_per_tuple", "ns"}, {"export.bytes_per_tuple", "B"},
	{"ack.p99_ms", "ms"}, {"ack.samples", "count"}, {"freshness.p90_ms", "ms"}, {"freshness.samples", "count"},
	{"epoch.gate_wait_frac", "ratio"}, {"epoch.per_s", "1/s"}, {"delivered.tuples_per_s", "tuples/s"},
	{"server.cpu_util", "ratio"}, {"gen.cpu_util", "ratio"},
	{"paced.ack_p50_ms", "ms"}, {"paced.freshness_p50_ms", "ms"}, {"paced.freshness_p99_ms", "ms"}, {"paced.gen_late_p99_ms", "ms"},
	{"raw.goodput_tuples_per_s", "tuples/s"}, {"raw.ack_p50_ms", "ms"}, {"raw.freshness_p50_ms", "ms"}, {"raw.server_cpu_us_per_tuple", "us"}, {"raw.setup_s", "s"},
	{"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
	{"host.speed_factor", "ratio"}, {"host.calib_ns", "ns"}, {"host.nproc", "count"}, {"host.noisy_rounds", "count"},
}

// outcome is one invocation's result for one workload and mode.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	noisy     int // rounds flagged noisy_host
}

const defaultRounds = 3

// measureEndToEnd runs `rounds` rounds, each on a fresh daemon with the
// window an equal share of `seconds`, and reports each metric's median over
// the rounds: one slow-host episode then moves at most one of three samples.
func measureEndToEnd(ctx context.Context, ev *env, w workload, seed int64, seconds float64, rounds int) (*outcome, error) {
	window := time.Duration(seconds / float64(rounds) * float64(time.Second))
	samples := map[string][]float64{}
	out := &outcome{values: map[string]float64{}}
	for r := 0; r < rounds; r++ {
		res, err := runRound(ctx, ev, w, seed, roundOpts{window: window, refCheck: r == 0})
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r+1, err)
		}
		for name, v := range res.endToEnd() {
			samples[name] = append(samples[name], v)
		}
		out.attempted += res.attempted
		out.failed += res.failed
		out.problems = append(out.problems, res.problems...)
		flag := ""
		if res.noisyHost {
			out.noisy++
			flag = " noisy_host"
		}
		fmt.Printf("# %s round %d/%d raw: %d epochs %.0f tuples/s ack_p50 %.3f ms (%d samples) freshness_p50 %.3f ms (%d samples) cpu %.4f us setup %.2f s recovery %.2f s host %.3f setup-host %.3f calib %.1f ms%s\n",
			w.name, r+1, rounds, res.windowEpochs, res.goodput, res.ackP50Ms, res.ackSamples, res.freshP50Ms, res.freshSamples, res.cpuUsPerTuple, res.setupS, res.recoveryS, res.host, res.hostSetup, res.calibNs/1e6, flag)
	}
	for name, xs := range samples {
		out.values[name] = median(xs)
	}
	return out, nil
}

// measureLayers is the traced run: the in-process passes, then one live
// round (with ingest_flood's open-loop phase) for the metrics scraped from
// the daemon's status and from the run itself.
func measureLayers(ctx context.Context, ev *env, w workload, seed int64, seconds float64, pacedFor time.Duration) (*outcome, error) {
	tr, err := runTrace(ctx, ev, w, seed)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	opts := roundOpts{window: time.Duration(seconds / 2 * float64(time.Second))}
	if w.name == "ingest_flood" {
		opts.pacedFor = pacedFor
	}
	res, err := runRound(ctx, ev, w, seed, opts)
	if err != nil {
		return nil, fmt.Errorf("%s live round: %w", w.name, err)
	}
	out := &outcome{values: map[string]float64{}, attempted: res.attempted, failed: res.failed, problems: res.problems}
	if res.noisyHost {
		out.noisy = 1
	}
	v := out.values
	p := tr.p
	perTuple := func(name string) float64 { return tr.perTuple[name] }
	reqPerTuple := float64(p.requests) / float64(p.ingested)

	v["wire.decode_ns_per_tuple"] = perTuple("wire.decode")
	v["wire.bytes_per_tuple"] = float64(p.bytesIn) / float64(p.ingested)
	v["wire.decode_errors"] = float64(p.decodeErr)
	httpSelf := tr.serveNs - (tr.rungNs - tr.commitNsPerPush)
	v["server.http_self_ns_per_req"] = httpSelf
	v["server.admit_ns_per_req"] = tr.perReq["server.admit"]
	v["server.ack_ns_per_req"] = tr.perReq["server.ack"]
	v["server.throttled"] = float64(res.st.Throttled.Batches)
	v["http.transport_ns_per_req"] = res.ackMeanNs - tr.serveNs

	// The ledger: every span's self time, plus the handler's own share
	// measured on the recorder, per ingested tuple.
	attributed := math.Max(httpSelf, 0) * reqPerTuple
	for _, ns := range tr.perTuple {
		attributed += ns
	}
	v["ledger.attributed_frac"] = attributed / (1e9 / res.goodput)
	pushLayers := perTuple("wire.decode") + perTuple("server.admit") + perTuple("server.ack") + perTuple("ingest.push") + math.Max(httpSelf, 0)*reqPerTuple
	v["ledger.push_layers_frac"] = pushLayers / attributed
	v["ledger.epoch_layers_frac"] = (perTuple("topology.ingest") + perTuple("stream.store")) / attributed
	v["ledger.read_layers_frac"] = (perTuple("stream.read") + perTuple("export.encode")) / attributed
	pushPath := tr.perReq["req"] + math.Max(httpSelf, 0)
	v["ledger.wal_push_frac"] = tr.walPushNs / pushPath

	v["ingest.push_ns_per_tuple"] = perTuple("ingest.push")
	v["ingest.acquire_ns_per_tuple"] = perTuple("ingest.acquire")
	v["ingest.accepted"] = float64(res.st.Ingested)
	v["ingest.dropped"] = float64(res.st.IngestDropped)
	v["ingest.late_dropped"] = float64(res.st.LateDropped)
	v["ingest.duplicates"] = float64(res.st.IngestDuplicates)
	v["ingest.pending_max"] = float64(res.pendMax)

	v["wal.append_ns_per_tuple"] = perTuple("wal.append")
	v["wal.commit_ns_per_push"] = tr.commitNsPerPush
	v["wal.bytes_per_tuple"] = float64(p.walBytes) / float64(p.ingested)
	v["wal.replay_ns_per_tuple"] = tr.replayNs
	v["wal.recover_tuples_per_s"] = res.recoverTuplesPerS
	if d := res.st.Durability; d != nil {
		v["wal.records"] = float64(d.WALRecords)
		v["wal.segments"] = float64(d.WALSegments)
	}
	if s := res.st.Sched; s != nil {
		v["sched.wait_p50_ms"] = s.P50WaitMs
		v["sched.wait_total_ms"] = s.TotalWaitMs
	}
	v["planner.submit_us_per_query"] = tr.submitUs
	v["planner.cache_hits"] = float64(res.st.PlanCacheHits)
	v["planner.cache_misses"] = float64(res.st.PlanCacheMisses)

	v["topology.ingest_self_ns_per_tuple"] = perTuple("topology.ingest")
	v["topology.subplans"] = float64(res.st.Subplans)
	v["topology.shared_queries"] = float64(res.st.SharedQueries)
	ops := 0
	for _, n := range res.st.Operators {
		ops += n
	}
	v["topology.operators"] = float64(ops)
	v["topology.out_per_in"] = float64(p.stored.Load()) / float64(p.ingested)
	v["pmat.flatten_ns_per_tuple"] = tr.flattenNs
	v["pmat.thin_ns_per_tuple"] = tr.thinNs
	v["stream.store_ns_per_tuple"] = perTuple("stream.store")
	v["stream.read_ns_per_tuple"] = perTuple("stream.read")
	v["stream.retention_drops"] = float64(res.st.RetentionDrops)
	v["export.encode_ns_per_tuple"] = perTuple("export.encode")
	v["export.bytes_per_tuple"] = float64(p.out.n) / float64(p.delivered)

	v["ack.p99_ms"] = res.ackP99Ms
	v["ack.samples"] = float64(res.ackSamples)
	v["freshness.p90_ms"] = res.freshP90Ms
	v["freshness.samples"] = float64(res.freshSamples)
	v["epoch.gate_wait_frac"] = res.gateWaitFrac
	v["epoch.per_s"] = res.epochsPerS
	v["delivered.tuples_per_s"] = res.deliveredS
	v["server.cpu_util"] = res.serverCPUUtil
	v["gen.cpu_util"] = res.genCPUUtil
	if pr := res.paced; pr != nil {
		v["paced.ack_p50_ms"] = pr.ackP50Ms
		v["paced.freshness_p50_ms"] = pr.freshP50Ms
		v["paced.freshness_p99_ms"] = pr.freshP99Ms
		v["paced.gen_late_p99_ms"] = pr.genLateP99Ms
	}
	v["raw.goodput_tuples_per_s"] = res.goodput
	v["raw.ack_p50_ms"] = res.ackP50Ms
	v["raw.freshness_p50_ms"] = res.freshP50Ms
	v["raw.server_cpu_us_per_tuple"] = res.cpuUsPerTuple
	v["raw.setup_s"] = res.setupS
	v["host.speed_factor"] = res.host
	v["trace.overhead_frac"] = tr.overhead
	v["trace.spans"] = float64(tr.spans)
	v["host.calib_ns"] = res.calibNs
	v["host.nproc"] = float64(runtime.NumCPU())
	v["host.noisy_rounds"] = float64(out.noisy)
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0 // a layer this workload does not have (no WAL, no paced phase)
		}
	}
	return out, nil
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult assembles the contract's JSON object for the given metric
// list and returns it with every reason the outputs are not correct: a
// failed check, a failed operation, or a metric missing or not finite.
func buildResult(defs []metricDef, out *outcome) (result, []string) {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	problems := append([]string(nil), out.problems...)
	for _, m := range defs {
		val, ok := out.values[m.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is missing or not finite", m.name))
			val = 0
		}
		res.Metrics[m.name] = metricValue{Value: val, Unit: m.unit}
	}
	res.Correct = len(problems) == 0 && out.failed == 0
	return res, problems
}

// report prints every metric by name with its unit, then the JSON line, and
// returns whether the outputs were correct.
func report(w workload, defs []metricDef, out *outcome) bool {
	res, problems := buildResult(defs, out)
	for _, m := range defs {
		fmt.Printf("%-14s %-36s %16.6g %s\n", w.name, m.name, res.Metrics[m.name].Value, m.unit)
	}
	if out.noisy > 0 {
		fmt.Printf("# %s: %d round(s) flagged noisy_host (calibration kernel moved >10%% across the round)\n", w.name, out.noisy)
	}
	for _, p := range problems {
		fmt.Printf("# %s INCORRECT: %s\n", w.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Printf("%s\n", line)
	return res.Correct
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, both modes)")
		seed    = flag.Int64("seed", 1, "seeds the corpus (positions, values) and the session")
		seconds = flag.Float64("seconds", 12, "measured seconds per invocation, split over the rounds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		root    = flag.String("root", "..", "checkout root (the directory holding cmd/craqrd)")
		aa      = flag.Int("aa", 0, "A/A mode: run N full invocations of every workload and write bench/out/aa.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *root, *name, *seed, *seconds, *trace, *aa); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, root, name string, seed int64, seconds float64, trace, aa int) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	ev, err := newEnv(root)
	if err != nil {
		return err
	}
	if err := ev.buildDaemon(ctx); err != nil {
		return err
	}
	if aa > 0 {
		return runAA(ctx, ev, aa, seed, seconds)
	}
	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	if name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	} else {
		w, ok := workloadByName(name)
		if !ok {
			names := make([]string, 0, len(workloads))
			for _, w := range workloads {
				names = append(names, w.name)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown workload %q (have %v)", name, names)
		}
		jobs = []job{{w, trace}}
	}
	ok := true
	for _, j := range jobs {
		var out *outcome
		defs := endToEnd
		if j.trace == 0 {
			out, err = measureEndToEnd(ctx, ev, j.w, seed, seconds, defaultRounds)
		} else {
			defs = perLayer
			out, err = measureLayers(ctx, ev, j.w, seed, seconds, pacedSeconds*time.Second)
		}
		if err != nil {
			return err
		}
		ok = report(j.w, defs, out) && ok
	}
	if !ok {
		return errIncorrect
	}
	return nil
}
