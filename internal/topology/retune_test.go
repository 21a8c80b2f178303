package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// pipelineKeys lists the materialized pipelines' keys in VisitLastReports
// order. Retunes go through it: the walk's callback runs under the read
// lock Retune needs for writing.
func pipelineKeys(fab *Fabricator) []Key {
	var keys []Key
	fab.VisitLastReports(func(k Key, _ pmat.ViolationReport) { keys = append(keys, k) })
	return keys
}

// retuneAll applies one adaptive scale to every materialized pipeline.
func retuneAll(t *testing.T, fab *Fabricator, scale float64) {
	t.Helper()
	for _, k := range pipelineKeys(fab) {
		if err := fab.Retune(k, scale); err != nil {
			t.Fatalf("retune %v: %v", k, err)
		}
	}
}

// TestRetuneFusedMatchesUnfused is the retune golden test required by the
// adaptivity acceptance criteria: after a mid-run rate retune — which
// rescales every F target and T-operator under a compiled program that
// reads them live — compiled execution and the reference graph walk must
// keep fabricating byte-identical streams, including across a later recovery
// back to scale 1.
func TestRetuneFusedMatchesUnfused(t *testing.T) {
	unfused, walk, ucols := buildFusedFixture(t, 4242, 2, true)
	fused, _, fcols := buildFusedFixture(t, 4242, 2, false)
	region := fused.grid.Region()

	drive := func(run epochRunner, from, to int) {
		for e := from; e < to; e++ {
			for _, attr := range []string{"rain", "temp"} {
				if err := run.Ingest(sourceBatch(attr, e, region, 600)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, arm := range []struct {
		fab *Fabricator
		run epochRunner
	}{{unfused, walk}, {fused, fused}} {
		fab := arm.fab
		drive(arm.run, 0, 2)
		retuneAll(t, fab, 0.5) // starved: halve every pipeline's rates
		drive(arm.run, 2, 4)
		retuneAll(t, fab, 0.8) // partial recovery
		drive(arm.run, 4, 5)
		retuneAll(t, fab, 1) // fully recovered
		drive(arm.run, 5, 7)
		if err := fab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ucols {
		want, got := ucols[i].Tuples(), fcols[i].Tuples()
		if len(want) == 0 {
			t.Fatalf("query %d: golden stream is empty, test is vacuous", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: fused stream diverges from unfused after retune (%d vs %d tuples)", i, len(got), len(want))
		}
	}
	if uf, ff := unfused.TotalFlow(), fused.TotalFlow(); !reflect.DeepEqual(uf, ff) {
		t.Errorf("flow counters diverge after retune: unfused %+v, fused %+v", uf, ff)
	}
}

// TestRetunePreservesProbabilities checks the uniform-scaling contract: a
// retune rescales the F target and every T-operator's rate pair but leaves
// every retention probability untouched, and the chain invariants hold at
// every scale, including through query churn while retuned.
func TestRetunePreservesProbabilities(t *testing.T) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 4, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, Config{}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	cell := geom.NewRect(0, 0, 2, 2)
	for _, rate := range []float64{10, 4} {
		if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: cell, Rate: rate}, stream.NewCollector()); err != nil {
			t.Fatal(err)
		}
	}
	key := Key{Cell: geom.CellID{Q: 0, R: 0}, Attr: "rain"}
	p, ok := fab.cells[key]
	if !ok {
		t.Fatal("pipeline not materialized")
	}
	probs := func() []float64 {
		var out []float64
		for _, op := range p.Operators() {
			if th, ok := op.(interface{ Probability() float64 }); ok {
				out = append(out, th.Probability())
			}
		}
		return out
	}
	before := probs()
	targetBefore := p.flatten.TargetRate()
	if err := fab.Retune(key, 0.5); err != nil {
		t.Fatal(err)
	}
	if s := fab.cells[key].scale; s != 0.5 {
		t.Fatalf("Scale = %g, want 0.5", s)
	}
	if got := p.flatten.TargetRate(); math.Abs(got-0.5*targetBefore) > 1e-12 {
		t.Fatalf("F target after retune = %g, want %g", got, 0.5*targetBefore)
	}
	after := probs()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("retune changed retention probabilities: %v -> %v", before, after)
	}
	if err := fab.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken at scale 0.5: %v", err)
	}
	// Churn while retuned: a new mid-chain rate node must be built at the
	// current scale, and deletion must re-merge correctly.
	q6, err := fab.InsertQuery(query.Query{Attr: "rain", Region: cell, Rate: 6}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after insert at scale 0.5: %v", err)
	}
	if err := fab.DeleteQuery(q6.ID); err != nil {
		t.Fatal(err)
	}
	if err := fab.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after delete at scale 0.5: %v", err)
	}
	// Recovery to nominal restores the original operator rates.
	if err := fab.Retune(key, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.flatten.TargetRate(); math.Abs(got-targetBefore) > 1e-12 {
		t.Fatalf("F target after recovery = %g, want %g", got, targetBefore)
	}
	if err := fab.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after recovery: %v", err)
	}
	// Out-of-range scales are rejected; unknown keys are a no-op.
	if err := fab.Retune(key, 0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if err := fab.Retune(key, 1.5); err == nil {
		t.Fatal("scale 1.5 accepted")
	}
	if err := fab.Retune(Key{Cell: geom.CellID{Q: 3, R: 3}, Attr: "rain"}, 0.5); err != nil {
		t.Fatalf("unknown key should be a no-op, got %v", err)
	}
}
