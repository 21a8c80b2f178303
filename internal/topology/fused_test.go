package topology

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// fusedFixtureQueries builds a load whose cell (0,0) chain is ≥ 4 T-operators
// deep (rates 25 > 12 > 6 > 2.5, plus a partition tap at 9), with multi-cell
// merges and a second attribute riding along.
var fusedFixtureQueries = []query.Query{
	{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 25},           // all cells
	{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 12},           // cell (0,0)
	{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 6},            // deeper
	{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 2.5},          // deeper still
	{Attr: "rain", Region: geom.NewRect(0.5, 0.5, 2.5, 2.5), Rate: 9},    // partition taps mid-chain
	{Attr: "rain", Region: geom.NewRect(1, 1, 5, 3), Rate: 7},            // partial overlaps, multi-cell
	{Attr: "temp", Region: geom.NewRect(2, 2, 7.5, 6), Rate: 14},         // second attribute
	{Attr: "temp", Region: geom.NewRect(2.25, 2.25, 4.5, 4.25), Rate: 4}, // partition + chain on temp
}

// buildFusedFixture assembles the fixture's fabricator for one seed, on the
// compiled program or, with walkGraph, on the operator-graph walk.
func buildFusedFixture(t *testing.T, seed int64, workers int, walkGraph bool) (*Fabricator, []*stream.Collector) {
	t.Helper()
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, Config{Workers: workers}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	controlArm(fab, walkGraph, false)
	cols := make([]*stream.Collector, len(fusedFixtureQueries))
	for i, q := range fusedFixtureQueries {
		cols[i] = stream.NewCollector()
		if _, err := fab.InsertQuery(q, cols[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return fab, cols
}

// runFixtureEpochs drives both attributes, including one fully empty epoch
// (starved cells must still deliver empty batches so merge slices complete).
func runFixtureEpochs(t *testing.T, fab *Fabricator, epochs, perEpoch int) {
	t.Helper()
	region := fab.grid.Region()
	for e := 0; e < epochs; e++ {
		n := perEpoch
		if e == 2 {
			n = 0
		}
		for _, attr := range []string{"rain", "temp"} {
			if err := fab.Ingest(sourceBatch(attr, e, region, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFusedMatchesUnfusedGolden is the fused-execution golden test: across
// seeds and worker-pool sizes, compiled fused execution must fabricate
// byte-identical streams to the unfused operator-graph walk — same tuples in
// the same order for every query, and identical flow counters (same
// Bernoulli draws at every operator).
func TestFusedMatchesUnfusedGolden(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				unfused, ucols := buildFusedFixture(t, seed, workers, true)
				fused, fcols := buildFusedFixture(t, seed, workers, false)
				runFixtureEpochs(t, unfused, 6, 700)
				runFixtureEpochs(t, fused, 6, 700)
				for i := range ucols {
					want, got := ucols[i].Tuples(), fcols[i].Tuples()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("query %d: fused stream diverges from unfused (%d vs %d tuples)", i, len(got), len(want))
					}
					if len(want) == 0 {
						t.Errorf("query %d: golden stream is empty, test is vacuous", i)
					}
				}
				if uf, ff := unfused.TotalFlow(), fused.TotalFlow(); !reflect.DeepEqual(uf, ff) {
					t.Errorf("flow counters diverge: unfused %+v, fused %+v", uf, ff)
				}
				if err := fused.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFusedRecompileOnChurn inserts and deletes queries mid-run — AddTap
// splices a T-operator into the middle of a compiled chain, DeleteQuery
// merges T-operators back — and requires fused output to keep tracking the
// unfused reference byte-for-byte through every recompilation.
func TestFusedRecompileOnChurn(t *testing.T) {
	unfused, ucols := buildFusedFixture(t, 99, 2, true)
	fused, fcols := buildFusedFixture(t, 99, 2, false)
	region := fused.grid.Region()

	churn := func(fab *Fabricator) ([]string, *stream.Collector) {
		var inserted []string
		midCol := stream.NewCollector()
		for e := 0; e < 8; e++ {
			if e == 3 {
				// Splice a new rate node (8 sits between 12 and 6) into the
				// deep chain of cell (0,0).
				q, err := fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 8}, midCol)
				if err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, q.ID)
			}
			if e == 6 {
				// Delete the rate-6 node: its neighbours become consecutive
				// T-operators and must merge.
				for _, id := range fab.Queries() {
					if id.Attr == "rain" && id.Rate == 6 {
						if err := fab.DeleteQuery(id.ID); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for _, attr := range []string{"rain", "temp"} {
				if err := fab.Ingest(sourceBatch(attr, e, region, 600)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return inserted, midCol
	}

	_, umid := churn(unfused)
	_, fmid := churn(fused)
	for i := range ucols {
		if !reflect.DeepEqual(fcols[i].Tuples(), ucols[i].Tuples()) {
			t.Errorf("query %d: fused diverges from unfused across churn", i)
		}
	}
	if !reflect.DeepEqual(fmid.Tuples(), umid.Tuples()) {
		t.Errorf("mid-run query: fused diverges (%d vs %d tuples)", fmid.Len(), umid.Len())
	}
	if fmid.Len() == 0 {
		t.Error("mid-run query collected nothing, churn test is vacuous")
	}
	if err := fused.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFusedProgramLifecycle pins the compile/invalidation contract of the
// epoch program: lazy compile on the first Ingest, reuse across batches and
// attributes' independence, recompilation after a structural insert or a
// teardown and only then — neither a member attaching to or detaching from a
// resident subplan nor a retune costs one — and no program at all on the
// graph walk.
func TestFusedProgramLifecycle(t *testing.T) {
	grid := fig2Grid(t)
	f := newFab(t, grid, Config{Workers: 1})
	ingest := func(f *Fabricator, attr string, e int) {
		t.Helper()
		if err := f.Ingest(sourceBatch(attr, e, grid.Region(), 200)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(f *Fabricator, step string, want ProgramStats) {
		t.Helper()
		if got := f.ProgramStats(); got != want {
			t.Fatalf("%s: program stats %+v, want %+v", step, got, want)
		}
	}
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	sink := stream.NewCollector()
	first, err := f.InsertQuery(q, sink)
	if err != nil {
		t.Fatal(err)
	}
	expect(f, "before the first epoch", ProgramStats{})
	ingest(f, "rain", 0)
	expect(f, "first epoch", ProgramStats{Subplans: 1, Sources: 4, Compiles: 1})
	ingest(f, "rain", 1)
	ingest(f, "temp", 1) // no pipelines: nothing to compile
	expect(f, "second epoch", ProgramStats{Subplans: 1, Sources: 4, Compiles: 1})

	// A member attaching to the resident subplan, and leaving again.
	member, err := f.InsertQuery(q, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	ingest(f, "rain", 2)
	if err := f.DeleteQuery(member.ID); err != nil {
		t.Fatal(err)
	}
	ingest(f, "rain", 3)
	for _, p := range f.order["rain"] {
		if err := f.Retune(p.key, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ingest(f, "rain", 4)
	expect(f, "shared churn and a retune", ProgramStats{Subplans: 1, Sources: 4, Compiles: 1})

	// A second subplan, of four P taps; then temp gets a program of its own
	// without disturbing rain's.
	part, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0.5, 0.5, 2.5, 2.5), Rate: 3}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	expect(f, "invalidated", ProgramStats{Compiles: 1})
	ingest(f, "rain", 5)
	expect(f, "structural insert", ProgramStats{Subplans: 2, Sources: 8, Compiles: 2})
	if _, err := f.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(0, 0, 2, 2), Rate: 3}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	ingest(f, "temp", 5)
	expect(f, "second attribute", ProgramStats{Subplans: 3, Sources: 9, Compiles: 3})
	if err := f.DeleteQuery(part.ID); err != nil {
		t.Fatal(err)
	}
	ingest(f, "rain", 6)
	expect(f, "teardown", ProgramStats{Subplans: 2, Sources: 5, Compiles: 4})
	if err := f.DeleteQuery(first.ID); err != nil {
		t.Fatal(err)
	}
	ingest(f, "rain", 7) // no pipelines left
	expect(f, "attribute emptied", ProgramStats{Subplans: 1, Sources: 1, Compiles: 4})
	if sink.Len() == 0 {
		t.Fatal("the program delivered nothing")
	}

	walk := controlArm(newFab(t, grid, Config{}), true, false)
	if _, err := walk.InsertQuery(q, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	ingest(walk, "rain", 0)
	expect(walk, "graph walk", ProgramStats{})
}
