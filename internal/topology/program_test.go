package topology

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// tupleSink is what both differential arms read their streams back from:
// stream.Collector and *stream.ResultStore.
type tupleSink interface {
	stream.Processor
	Tuples() []stream.Tuple
}

// batchOrder is how a differential feed arranges each raw batch.
type batchOrder int

const (
	orderSorted  batchOrder = iota // (T, ID)-ascending: what epoch assembly produces
	orderArrival                   // as generated: IDs ascend, times do not
	orderReverse                   // (T, ID)-descending
)

func (o batchOrder) String() string { return [...]string{"sorted", "arrival", "reverse"}[o] }

func (o batchOrder) apply(b stream.Batch) stream.Batch {
	if o != orderArrival {
		stream.SortTuples(b.Tuples)
	}
	if o == orderReverse {
		slices.Reverse(b.Tuples)
	}
	return b
}

// programArm is one fabricator of a differential pair with its sinks by
// label, so the same script can be replayed on the compiled program and on
// the reference graph walk (run).
type programArm struct {
	t     *testing.T
	fab   *Fabricator
	run   epochRunner
	ids   map[string]string
	sinks map[string]tupleSink
}

func newProgramArm(t *testing.T, cfg Config, seed int64) *programArm {
	t.Helper()
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &programArm{t: t, fab: fab, run: fab, ids: map[string]string{}, sinks: map[string]tupleSink{}}
}

// insert submits q under label; asStore selects a result store (the sink the
// program writes without materializing a batch) over a collector.
func (a *programArm) insert(label string, q query.Query, asStore bool) {
	a.t.Helper()
	var sink tupleSink = stream.NewCollector()
	if asStore {
		sink = stream.NewResultStore(1 << 16)
	}
	stored, err := a.fab.InsertQuery(q, sink)
	if err != nil {
		a.t.Fatalf("insert %s: %v", label, err)
	}
	a.ids[label], a.sinks[label] = stored.ID, sink
}

func (a *programArm) delete(label string) {
	a.t.Helper()
	if err := a.fab.DeleteQuery(a.ids[label]); err != nil {
		a.t.Fatalf("delete %s: %v", label, err)
	}
	delete(a.ids, label)
}

func (a *programArm) feed(order batchOrder, epoch, n int) {
	a.t.Helper()
	for _, attr := range []string{"rain", "temp"} {
		if err := a.run.Ingest(order.apply(sourceBatch(attr, epoch, a.fab.grid.Region(), n))); err != nil {
			a.t.Fatal(err)
		}
	}
}

// operatorFlows lists every live operator's counters by name — the cell
// operators and, per resident query, its plan's U-operator.
func (a *programArm) operatorFlows() map[string]stream.FlowStats {
	out := map[string]stream.FlowStats{}
	a.fab.mu.RLock()
	for _, p := range a.fab.cells {
		for _, op := range p.Operators() {
			out[op.Name()] = op.Stats()
		}
	}
	a.fab.mu.RUnlock()
	for _, id := range a.ids {
		if u := queryPlan(a.fab, id).Union; u != nil {
			out[u.Name()] = u.Stats()
		}
	}
	return out
}

// runProgramScript replays the differential scenario on one arm: the fused
// fixture's queries (deep T-chain, mid-chain P taps, multi-cell partial
// overlaps, a second attribute) on alternating sink kinds, one empty epoch,
// members attaching to and leaving resident subplans, an insert that splices
// a T-operator into a chain, a delete that merges two, and a retune down and
// back. It returns the program's compile count before and after the
// shared-member churn.
func runProgramScript(a *programArm, order batchOrder) (before, after uint64) {
	for i, q := range fusedFixtureQueries {
		a.insert(fmt.Sprintf("q%d", i), q, i%2 == 1)
	}
	for e := 0; e < 9; e++ {
		n := 500
		switch e {
		case 2:
			n = 0
		case 3:
			before = a.fab.ProgramStats().Compiles
			// Members of resident subplans: a store joining a collector's
			// fan (rows are materialized for both), a store joining a
			// store's (they share the ring the program writes).
			a.insert("dup0", fusedFixtureQueries[0], true)
			a.insert("dup5", fusedFixtureQueries[5], true)
		case 4:
			a.delete("dup0")
		case 5:
			after = a.fab.ProgramStats().Compiles
			// 8 sits between 12 and 6 in cell (0,0)'s chain.
			a.insert("mid", query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 8}, false)
			retuneAll(a.t, a.fab, 0.6)
		case 7:
			a.delete("q2") // rate 6: its neighbours merge
			retuneAll(a.t, a.fab, 1)
		}
		a.feed(order, e, n)
	}
	if err := a.fab.CheckInvariants(); err != nil {
		a.t.Fatal(err)
	}
	return before, after
}

// TestEpochProgramMatchesGraphWalk is the position program's differential
// test: for every batch order, worker count and sharing setting, the compiled
// program and the reference graph walk (graphWalk) must fabricate the same
// stream for every query, leave every operator with the same flow counters,
// and — with sharing on — the program must have been compiled, and not again
// for members coming and going.
func TestEpochProgramMatchesGraphWalk(t *testing.T) {
	for _, order := range []batchOrder{orderSorted, orderArrival, orderReverse} {
		for _, workers := range []int{1, 4} {
			for _, sharing := range []bool{true, false} {
				t.Run(fmt.Sprintf("%v/workers=%d/sharing=%v", order, workers, sharing), func(t *testing.T) {
					cfg := Config{Workers: workers}
					prog := newProgramArm(t, cfg, 31)
					controlArm(prog.fab, !sharing)
					walk := newProgramArm(t, cfg, 31)
					controlArm(walk.fab, !sharing)
					walk.run = newGraphWalk(walk.fab)
					before, after := runProgramScript(prog, order)
					runProgramScript(walk, order)

					for label, sink := range walk.sinks {
						want, got := sink.Tuples(), prog.sinks[label].Tuples()
						if len(want) == 0 {
							t.Errorf("%s: the graph walk's stream is empty, the comparison is vacuous", label)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: program stream diverges from the graph walk (%d vs %d tuples)", label, len(got), len(want))
						}
					}
					if got, want := prog.fab.TotalFlow(), walk.fab.TotalFlow(); got != want {
						t.Errorf("total flow %+v, graph walk %+v", got, want)
					}
					if got, want := prog.fab.OperatorCounts(), walk.fab.OperatorCounts(); !reflect.DeepEqual(got, want) {
						t.Errorf("operator counts %v, graph walk %v", got, want)
					}
					want := walk.operatorFlows()
					for name, got := range prog.operatorFlows() {
						if got != want[name] {
							t.Errorf("%s: flow %+v, graph walk %+v", name, got, want[name])
						}
					}

					if got := walk.fab.ProgramStats(); got != (ProgramStats{}) {
						t.Errorf("the graph walk compiled a program: %+v", got)
					}
					if before == 0 {
						t.Error("no program was compiled")
					}
					if sharing && after != before {
						t.Errorf("members attaching to and leaving resident subplans recompiled: %d -> %d", before, after)
					}
					if end := prog.fab.ProgramStats().Compiles; end <= after {
						t.Errorf("structural churn did not recompile: %d -> %d", after, end)
					}
				})
			}
		}
	}
}

// failingSink refuses every batch.
type failingSink struct{ err error }

func (s failingSink) Process(stream.Batch) error { return s.err }

// TestEpochProgramSinkError pins which failure an epoch reports when several
// sinks refuse their batch: the first in subplan (fabrication) order, naming
// the subplan — at one worker, where the epoch stops there, and at four, where
// later subplans may have run as well. The queries sit in cells the reference
// graph walk visits in the same order, so it reports the same sink.
func TestEpochProgramSinkError(t *testing.T) {
	errFirst, errSecond := errors.New("first sink"), errors.New("second sink")
	for _, workers := range []int{1, 4} {
		for _, walk := range []bool{false, true} {
			a := newProgramArm(t, Config{Workers: workers}, 5)
			if walk {
				a.run = newGraphWalk(a.fab)
			}
			first, err := a.fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, failingSink{errFirst})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(4, 4, 6, 6), Rate: 5}, failingSink{errSecond}); err != nil {
				t.Fatal(err)
			}
			err = a.run.Ingest(orderSorted.apply(sourceBatch("rain", 0, a.fab.grid.Region(), 400)))
			if !errors.Is(err, errFirst) || errors.Is(err, errSecond) {
				t.Fatalf("workers=%d walk=%v: Ingest = %v, want the first subplan's sink failure", workers, walk, err)
			}
			if want := "topology: subplan " + first.ID + ": first sink"; !walk && err.Error() != want {
				t.Fatalf("workers=%d: Ingest = %q, want %q", workers, err, want)
			}
		}
	}
}

// TestMergeRuns checks the position merge against a sort, over run shapes
// that include empty runs, a single run and odd run counts.
func TestMergeRuns(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, runs := range []int{0, 1, 2, 3, 7, 8, 33} {
		for trial := 0; trial < 20; trial++ {
			var keys []uint32
			var ends []int32
			next := uint32(0)
			perm := make([][]uint32, runs)
			total := rng.Intn(200)
			for i := 0; i < total && runs > 0; i++ {
				next += 1 + uint32(rng.Intn(3))
				r := rng.Intn(runs)
				perm[r] = append(perm[r], next)
			}
			for _, run := range perm {
				keys = append(keys, run...)
				ends = append(ends, int32(len(keys)))
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got, spare := mergeRuns(keys, make([]uint32, len(keys)), ends)
			if !slices.Equal(got, want) || len(spare) != len(want) {
				t.Fatalf("runs=%d: merged %v, want %v", runs, got, want)
			}
		}
	}
}

// FuzzEpochProgram fuzzes the compiled program against the reference graph
// walk (graphWalk). The input bytes choose the grid side, 1–12 queries
// (attribute, rectangle on a quarter-unit lattice, rate), sharing, the worker
// count, the batch sizes and their order; the property is that every query's
// stream and the total flow are identical on both arms. The fourth byte once
// chose a merge layout; it is read and discarded, so the committed seeds
// (named after the layout they chose) keep their grids, queries and batch
// orders.
//
// Tie rule (see program.go): tuples equal in both T and ID are ordered by
// position by the program and by input order by the walk's U-operators, so
// the corpus must not contain them — the generated batches give every tuple
// of an attribute run its own ID, as ingest.idSet and the simulators do.
func FuzzEpochProgram(f *testing.F) {
	// testdata/fuzz/FuzzEpochProgram holds a sorted and a reverse-sorted seed;
	// this one feeds arrival order: a 4×4 grid, three queries.
	f.Add([]byte{3, 2, 0, 0, 1, 1, 120, 0, 0, 0, 31, 31, 24, 0, 3, 3, 15, 11, 10, 1, 6, 2, 19, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		side := 1 + next()%6
		nQueries := 1 + next()%12
		next() // the retired merge-layout byte
		unshared := next()%2 == 1
		cfg := Config{Workers: 1 + next()%3}
		order := batchOrder(next() % 3)
		perEpoch := 4 * next()
		region := geom.NewRect(0, 0, 8, 8)
		grid, err := geom.NewGrid(region, side*side)
		if err != nil {
			t.Fatal(err)
		}
		type arm struct {
			fab   *Fabricator
			run   epochRunner
			sinks []*stream.Collector
		}
		var arms [2]arm
		for i := range arms {
			if arms[i].fab, err = New(grid, cfg, stats.NewRNG(17)); err != nil {
				t.Fatal(err)
			}
			controlArm(arms[i].fab, unshared)
			arms[i].run = arms[i].fab
		}
		arms[1].run = newGraphWalk(arms[1].fab)
		for i := 0; i < nQueries; i++ {
			attr := []string{"rain", "temp"}[next()%2]
			x0, y0 := float64(next()%32)/4, float64(next()%32)/4
			x1, y1 := min(8, x0+float64(1+next()%32)/4), min(8, y0+float64(1+next()%32)/4)
			q := query.Query{Attr: attr, Region: geom.NewRect(x0, y0, x1, y1), Rate: 0.5 + float64(next()%40)/2}
			var errs [2]error
			for j := range arms {
				sink := stream.NewCollector()
				if _, errs[j] = arms[j].fab.InsertQuery(q, sink); errs[j] == nil {
					arms[j].sinks = append(arms[j].sinks, sink)
				}
			}
			// A region the grid refuses (smaller than a cell) is refused by
			// both arms or the fixture is broken.
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("query %d: program arm %v, graph walk %v", i, errs[0], errs[1])
			}
		}
		for e := 0; e < 3; e++ {
			n := perEpoch
			if e == 1 {
				n /= 3
			}
			for _, attr := range []string{"rain", "temp"} {
				for _, a := range arms {
					if err := a.run.Ingest(order.apply(sourceBatch(attr, e, region, n))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := range arms[0].sinks {
			if got, want := arms[0].sinks[i].Tuples(), arms[1].sinks[i].Tuples(); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: program stream diverges from the graph walk (%d vs %d tuples)", i, len(got), len(want))
			}
		}
		if got, want := arms[0].fab.TotalFlow(), arms[1].fab.TotalFlow(); got != want {
			t.Fatalf("total flow %+v, graph walk %+v", got, want)
		}
	})
}

// TestEpochProgramStarvedCells: an epoch none of whose tuples falls in a
// materialized cell, on scratch that has never grouped a position — every
// cell's share is the empty (here even nil) position list: each F-operator
// sees an empty batch and reports a starved cell.
func TestEpochProgramStarvedCells(t *testing.T) {
	a := newProgramArm(t, Config{Workers: 1}, 3)
	a.insert("q", query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 2}, true)
	b := sourceBatch("rain", 0, geom.NewRect(4, 4, 8, 8), 300)
	pipes := a.fab.order["rain"]
	ep := &epochScratch{}
	ep.batch, ep.pipes = b, pipes
	ep.scatter(a.fab.grid, a.fab.slots["rain"], len(pipes), b.Tuples)
	ep.begin(a.fab.program("rain"))
	if err := ep.execute(1); err != nil {
		t.Fatal(err)
	}
	if len(pipes) == 0 {
		t.Fatal("no pipeline materialized")
	}
	for _, p := range pipes {
		if st, rep := p.flatten.Stats(), p.flatten.LastReport(); st.TuplesIn != 0 || st.BatchesIn != 1 || rep.N != 0 || rep.Percent != 100 {
			t.Fatalf("%v: F saw %d tuples in %d batches, report %+v; want one empty, fully violating batch", p.key, st.TuplesIn, st.BatchesIn, rep)
		}
	}
}
