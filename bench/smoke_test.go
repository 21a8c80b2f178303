package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload at about a twentieth of its size, one
// round each, in both modes, against a real craqrd child — enough to prove
// that every named metric comes out, that the correctness checks (a)–(d)
// pass, and that no child process or temp dir outlives a run, whether it
// ends in success, failure or a deadline.

var smokeEnv *env

func TestMain(m *testing.M) {
	ev, err := newEnv("..")
	if err == nil {
		err = ev.buildDaemon(context.Background())
	}
	if err != nil {
		println("bench smoke:", err.Error())
		os.Exit(1)
	}
	smokeEnv = ev
	os.Exit(m.Run())
}

// craqrdChildren counts live craqrd processes whose parent is this test.
func craqrdChildren(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	me := strconv.Itoa(os.Getpid())
	n := 0
	for _, ent := range entries {
		if _, err := strconv.Atoi(ent.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "stat"))
		if err != nil {
			continue // exited between ReadDir and here
		}
		i := bytes.LastIndexByte(stat, ')')
		if i < 0 || !bytes.Contains(stat[:i], []byte("(craqrd")) {
			continue
		}
		if f := strings.Fields(string(stat[i+1:])); len(f) > 1 && f[1] == me {
			n++
		}
	}
	return n
}

func assertClean(t *testing.T) {
	t.Helper()
	if n := craqrdChildren(t); n != 0 {
		t.Errorf("%d craqrd child process(es) still alive", n)
	}
	left, err := filepath.Glob(filepath.Join(smokeEnv.buildDir, "tmp", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}

func assertMetrics(t *testing.T, w workload, defs []metricDef, out *outcome, positive bool) {
	t.Helper()
	res, problems := buildResult(defs, out)
	for _, p := range problems {
		t.Errorf("%s: %s", w.name, p)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", w.name, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", w.name, m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is not finite", w.name, m.name)
		case positive && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.name, got.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, full := range workloads {
		w := full.scaled(20)
		t.Run(w.name, func(t *testing.T) {
			out, err := measureEndToEnd(ctx, smokeEnv, w, 1, 0.3, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, w, endToEnd, out, true)
			assertClean(t)

			out, err = measureLayers(ctx, smokeEnv, w, 1, 0.4, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, w, perLayer, out, false)
			assertClean(t)
			if _, err := os.Stat(filepath.Join(smokeEnv.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if w.name == "ingest_flood" && out.values["paced.ack_p50_ms"] <= 0 {
				t.Errorf("open-loop phase did not report: paced.ack_p50_ms = %g", out.values["paced.ack_p50_ms"])
			}
			if w.durable && (out.values["wal.records"] <= 0 || out.values["wal.recover_tuples_per_s"] <= 0) {
				t.Errorf("durable workload reported no WAL: records=%g recover=%g", out.values["wal.records"], out.values["wal.recover_tuples_per_s"])
			}
		})
	}
}

// A round that fails part-way (here: set-up refuses a malformed query) must
// still reap its daemon and remove its temp dir.
func TestCleanupOnFailure(t *testing.T) {
	w := workloads[0].scaled(20)
	w.queries = []string{"ACQUIRE rain FROM NOWHERE"}
	_, err := runRound(context.Background(), smokeEnv, w, 1, roundOpts{window: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("round with a malformed query succeeded")
	}
	assertClean(t)
}

// A round cut short by its deadline must do the same.
func TestCleanupOnDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	w := workloads[3].scaled(20)
	_, err := runRound(ctx, smokeEnv, w, 1, roundOpts{window: 30 * time.Second})
	if err == nil {
		t.Fatal("round outlived its deadline")
	}
	assertClean(t)
}

// BENCHMARK.json is the contract other tools read; it must name exactly the
// metrics and workloads this package reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(smokeEnv.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, bench says %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, bench reports %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, bench reports %s in %s", i, got, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, bench reports %s in %s", i, got, m.name, m.unit)
		}
	}
}
