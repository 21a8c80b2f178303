package topology

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// fig2Grid is a 3×3 grid over a 6×6 region (cells are 2×2), the shape of the
// paper's Fig. 2 example.
func fig2Grid(t *testing.T) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.NewRect(0, 0, 6, 6), 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newFab(t *testing.T, g *geom.Grid, cfg Config) *Fabricator {
	t.Helper()
	f, err := New(g, cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// controlArm puts f, before its first insert, on the control arms the
// tests compare production against: walkGraph runs every epoch as the
// operator-graph walk instead of the compiled program, and unshared
// fabricates every query on a subplan, and a result ring, of its own.
func controlArm(f *Fabricator, walkGraph, unshared bool) *Fabricator {
	f.walkGraph = walkGraph
	if unshared {
		f.shared = nil
	}
	return f
}

// insertFig2Queries inserts the three queries of the Fig. 2 walkthrough:
// Q1⟨rain⟩ at the highest rate over four whole cells, Q2⟨temp⟩ over two
// whole cells, and Q3⟨temp⟩ at the lowest rate over a sub-cell region that
// needs P-operators (λ1 > λ2 > λ3, as in the paper).
func insertFig2Queries(t *testing.T, f *Fabricator) (q1, q2, q3 query.Query, s1, s2, s3 *stream.Collector) {
	t.Helper()
	s1, s2, s3 = stream.NewCollector(), stream.NewCollector(), stream.NewCollector()
	var err error
	q1, err = f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 12}, s1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err = f.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(4, 0, 6, 4), Rate: 8}, s2)
	if err != nil {
		t.Fatal(err)
	}
	q3, err = f.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(1, 4, 3, 6), Rate: 3}, s3)
	if err != nil {
		t.Fatal(err)
	}
	return q1, q2, q3, s1, s2, s3
}

func TestFig2TopologyConstruction(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	q1, q2, q3, _, _, _ := insertFig2Queries(t, f)
	if q1.ID != "Q1" || q2.ID != "Q2" || q3.ID != "Q3" {
		t.Fatalf("ids = %s %s %s", q1.ID, q2.ID, q3.ID)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Materialized keys: 4 rain cells + 2 temp cells (Q2) + 2 temp cells (Q3).
	if got := f.NumPipelines(); got != 8 {
		t.Fatalf("pipelines = %d, want 8", got)
	}
	counts := f.OperatorCounts()
	// One F and one T per key; P only for Q3's two partial cells; one flat
	// U per multi-cell query.
	if counts["F"] != 8 {
		t.Errorf("F count = %d, want 8", counts["F"])
	}
	if counts["T"] != 8 {
		t.Errorf("T count = %d, want 8", counts["T"])
	}
	if counts["P"] != 2 {
		t.Errorf("P count = %d, want 2 (only Q3 needs partition-out)", counts["P"])
	}
	if counts["U"] != 3 {
		t.Errorf("U count = %d, want 3", counts["U"])
	}
	r := f.Render()
	if !strings.Contains(r, "Q3·P") {
		t.Fatalf("render missing Q3 partition marker:\n%s", r)
	}
	if strings.Contains(strings.ReplaceAll(r, "Q3·P", ""), "·P") {
		t.Fatalf("render shows P-operators for Q1/Q2, which perfectly overlap cells:\n%s", r)
	}
}

func TestFig2StreamFabrication(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	_, _, _, s1, s2, s3 := insertFig2Queries(t, f)
	rng := stats.NewRNG(5)
	epochs := 30
	for e := 0; e < epochs; e++ {
		w := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: f.grid.Region()}
		for _, attr := range []string{"rain", "temp"} {
			// Abundant raw data, uniform over the region.
			n := rng.Poisson(60 * w.Volume())
			b := stream.Batch{Attr: attr, Window: w}
			for i := 0; i < n; i++ {
				b.Tuples = append(b.Tuples, stream.Tuple{
					ID: uint64(i), Attr: attr,
					T: rng.Uniform(w.T0, w.T1), X: rng.Uniform(0, 6), Y: rng.Uniform(0, 6),
				})
			}
			if err := f.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	dur := float64(epochs)
	rate1 := float64(s1.Len()) / (dur * 16) // R1 area 16
	rate2 := float64(s2.Len()) / (dur * 8)  // R2 area 8
	rate3 := float64(s3.Len()) / (dur * 4)  // R3 area 4
	if math.Abs(rate1-12) > 2 {
		t.Errorf("Q1 rate %g, want ≈12", rate1)
	}
	if math.Abs(rate2-8) > 1.5 {
		t.Errorf("Q2 rate %g, want ≈8", rate2)
	}
	if math.Abs(rate3-3) > 1 {
		t.Errorf("Q3 rate %g, want ≈3", rate3)
	}
	// Region containment: every fabricated tuple lies in its query region.
	for _, tp := range s3.Tuples() {
		if !geom.NewRect(1, 4, 3, 6).Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			t.Fatalf("Q3 tuple outside R3: %v", tp)
		}
	}
}

func TestFig2QueryDeletion(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	q1, _, q3, _, _, _ := insertFig2Queries(t, f)
	// Delete Q1: all rain pipelines disappear (streams deleted right to
	// left until the hashmap keys are removed).
	if err := f.DeleteQuery(q1.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := f.NumPipelines(); got != 4 {
		t.Fatalf("pipelines after Q1 deletion = %d, want 4", got)
	}
	counts := f.OperatorCounts()
	if counts["F"] != 4 || counts["T"] != 4 {
		t.Errorf("counts after deletion = %v", counts)
	}
	// Delete Q3: its P-operators go away, Q2 remains.
	if err := f.DeleteQuery(q3.ID); err != nil {
		t.Fatal(err)
	}
	counts = f.OperatorCounts()
	if counts["P"] != 0 {
		t.Errorf("P count after Q3 deletion = %d", counts["P"])
	}
	if f.NumPipelines() != 2 {
		t.Fatalf("pipelines = %d, want 2 (Q2's cells)", f.NumPipelines())
	}
	if err := f.DeleteQuery("Q2"); err != nil {
		t.Fatal(err)
	}
	if f.NumPipelines() != 0 {
		t.Fatal("pipelines remain after all queries deleted")
	}
	if err := f.DeleteQuery("Q2"); err == nil {
		t.Fatal("double deletion should error")
	}
}

func TestInsertQueryValidation(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 5}, nil); err == nil {
		t.Error("nil sink should error")
	}
	if _, err := f.InsertQuery(query.Query{Attr: "", Region: geom.NewRect(0, 0, 4, 4), Rate: 5}, stream.NewCollector()); err == nil {
		t.Error("invalid query should error")
	}
	// Failed inserts must not leak queries or pipelines.
	if len(f.Queries()) != 0 || f.NumPipelines() != 0 {
		t.Fatal("failed insert leaked state")
	}
}

// TestQueryNumbering pins the fabricator's query counter: queries are
// numbered Q1, Q2, … in insertion order, a query that fails Validate takes
// no number, a delete never frees one, DecodeState continues the sequence,
// and Queries sorts by ID string.
func TestQueryNumbering(t *testing.T) {
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 5}
	invalid := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 1, 1), Rate: 5} // below one cell
	insert := func(f *Fabricator, q query.Query) (string, error) {
		stored, err := f.InsertQuery(q, stream.NewResultStore(8))
		return stored.ID, err
	}
	idsOf := func(f *Fabricator) string {
		var ids []string
		for _, lq := range f.Queries() {
			ids = append(ids, lq.ID)
		}
		return strings.Join(ids, ",")
	}
	// populated holds Q1..Q11 minus the deleted Q3 and Q10.
	populated := func(t *testing.T) *Fabricator {
		f := newFab(t, fig2Grid(t), Config{})
		for i := 1; i <= 10; i++ {
			if _, err := insert(f, q); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"Q10", "Q3"} {
			if err := f.DeleteQuery(id); err != nil {
				t.Fatal(err)
			}
		}
		if id, err := insert(f, q); err != nil || id != "Q11" {
			t.Fatalf("insert after deletes = %s, %v; want Q11", id, err)
		}
		return f
	}

	t.Run("AssignsIDs", func(t *testing.T) {
		f := newFab(t, fig2Grid(t), Config{})
		for i := 1; i <= 10; i++ {
			if id, err := insert(f, q); err != nil || id != fmt.Sprintf("Q%d", i) {
				t.Fatalf("insert %d = %s, %v", i, id, err)
			}
		}
		if n := len(f.Queries()); n != 10 {
			t.Fatalf("%d live queries, want 10", n)
		}
	})

	t.Run("ValidateTakesNoNumber", func(t *testing.T) {
		f := newFab(t, fig2Grid(t), Config{})
		if _, err := insert(f, invalid); err == nil {
			t.Fatal("a query below the one-cell minimum was inserted")
		}
		if len(f.Queries()) != 0 {
			t.Fatal("a failed insert left a live query")
		}
		for i := 1; i <= 3; i++ {
			if _, err := insert(f, invalid); err == nil {
				t.Fatal("a query below the one-cell minimum was inserted")
			}
			if id, err := insert(f, q); err != nil || id != fmt.Sprintf("Q%d", i) {
				t.Fatalf("insert %d = %s, %v", i, id, err)
			}
		}
	})

	t.Run("QueryAndDelete", func(t *testing.T) {
		f := populated(t)
		if got, ok := f.Query("Q11"); !ok || got.ID != "Q11" || got.Region != q.Region || got.Rate != q.Rate {
			t.Fatalf("Query(Q11) = %+v, %v", got, ok)
		}
		if _, ok := f.Query("nope"); ok {
			t.Fatal("Query of an unknown id succeeded")
		}
		if _, ok := f.Query("Q10"); ok {
			t.Fatal("a deleted query is still live")
		}
		if err := f.DeleteQuery("Q10"); err == nil {
			t.Fatal("a second delete of Q10 succeeded")
		}
		if n := len(f.Queries()); n != 9 {
			t.Fatalf("%d live queries, want 9", n)
		}
	})

	t.Run("DeletesNeverFreeANumber", func(t *testing.T) {
		f := populated(t)
		if err := f.DeleteQuery("Q11"); err != nil {
			t.Fatal(err)
		}
		if id, err := insert(f, q); err != nil || id != "Q12" {
			t.Fatalf("insert after deleting the newest = %s, %v; want Q12", id, err)
		}
	})

	t.Run("QueriesSortedByIDString", func(t *testing.T) {
		f := populated(t)
		if got, want := idsOf(f), "Q1,Q11,Q2,Q4,Q5,Q6,Q7,Q8,Q9"; got != want {
			t.Fatalf("Queries = %s, want %s", got, want)
		}
	})

	t.Run("DecodeStateContinues", func(t *testing.T) {
		f := populated(t)
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		f.EncodeState(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := codec.Open(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		restored := newFab(t, fig2Grid(t), Config{})
		restored.DecodeState(r, 8)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.Queries(), f.Queries()) {
			t.Fatalf("restored queries %v, want %v", restored.Queries(), f.Queries())
		}
		if id, err := insert(restored, q); err != nil || id != "Q12" {
			t.Fatalf("insert after DecodeState = %s, %v; want Q12", id, err)
		}
	})
}

func TestSharedCellTopologyAcrossQueries(t *testing.T) {
	// Two same-attribute queries over the same cells share one F per cell —
	// the multi-query optimization the paper claims.
	f := newFab(t, fig2Grid(t), Config{})
	_, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 10}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 4}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	counts := f.OperatorCounts()
	if counts["F"] != 4 {
		t.Fatalf("F count = %d: queries did not share flatten operators", counts["F"])
	}
	if counts["T"] != 8 {
		t.Fatalf("T count = %d: want one per rate per cell", counts["T"])
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestRoutesToCorrectCells(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	sink := stream.NewCollector()
	// One-cell query on cell (0,0).
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, sink); err != nil {
		t.Fatal(err)
	}
	w := geom.Window{T0: 0, T1: 1, Rect: f.grid.Region()}
	b := stream.Batch{Attr: "rain", Window: w, Tuples: []stream.Tuple{
		{ID: 1, T: 0.5, X: 1, Y: 1},   // in cell (0,0)
		{ID: 2, T: 0.5, X: 5, Y: 5},   // in cell (2,2): no pipeline
		{ID: 3, T: 0.5, X: -1, Y: -1}, // off grid
	}}
	if err := f.Ingest(b); err != nil {
		t.Fatal(err)
	}
	// Tuple 2 and 3 silently dropped; tuple 1 may or may not survive the
	// probabilistic chain but the pipeline saw exactly 1 tuple.
	key := Key{Cell: geom.CellID{Q: 0, R: 0}, Attr: "rain"}
	p, ok := f.cells[key]
	if !ok {
		t.Fatal("pipeline missing")
	}
	if got := p.Flatten().Stats().TuplesIn; got != 1 {
		t.Fatalf("cell (0,0) flatten saw %d tuples, want 1", got)
	}
}

func TestIngestWrongAttributeIsNoOp(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	w := geom.Window{T0: 0, T1: 1, Rect: f.grid.Region()}
	if err := f.Ingest(stream.Batch{Attr: "temp", Window: w, Tuples: []stream.Tuple{{ID: 1, X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	key := Key{Cell: geom.CellID{Q: 0, R: 0}, Attr: "rain"}
	p, _ := f.cells[key]
	if p.Flatten().Stats().BatchesIn != 0 {
		t.Fatal("temp batch leaked into rain pipeline")
	}
}

// budgetOf returns the budget ctrl holds for k, and whether k is registered.
func budgetOf(ctrl *budget.Controller, k budget.Key) (float64, bool) {
	for _, s := range ctrl.Snapshots() {
		if s.Key == k {
			return s.Budget, true
		}
	}
	return 0, false
}

func TestBudgetWiring(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	ctrl, err := budget.NewController(budget.Config{Initial: 10, Delta: 2, Min: 2, Max: 100, ViolationThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	f.AttachBudgets(ctrl)
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	bk := budget.Key{Attr: "rain", Cell: geom.CellID{Q: 0, R: 0}}
	if _, ok := budgetOf(ctrl, bk); !ok {
		t.Fatal("budget slot not registered on insert")
	}
	// Empty ingest ⇒ 100% violation ⇒ budget raised.
	w := geom.Window{T0: 0, T1: 1, Rect: f.grid.Region()}
	if err := f.Ingest(stream.Batch{Attr: "rain", Window: w}); err != nil {
		t.Fatal(err)
	}
	b, _ := budgetOf(ctrl, bk)
	if b != 12 {
		t.Fatalf("budget = %g, want raised to 12", b)
	}
	// Deleting the query unregisters the slot.
	if err := f.DeleteQuery("Q1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := budgetOf(ctrl, bk); ok {
		t.Fatal("budget slot not unregistered on delete")
	}
}

func TestAttachBudgetsAfterInsert(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	ctrl, _ := budget.NewController(budget.Config{Initial: 10, Delta: 2, Min: 2, Max: 100, ViolationThreshold: 5})
	f.AttachBudgets(ctrl)
	bk := budget.Key{Attr: "rain", Cell: geom.CellID{Q: 0, R: 0}}
	if _, ok := budgetOf(ctrl, bk); !ok {
		t.Fatal("existing pipelines not registered on attach")
	}
}

func TestFabricatorChurnInvariants(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	rng := stats.NewRNG(21)
	var live []string
	for step := 0; step < 200; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			attr := "rain"
			if rng.Float64() < 0.5 {
				attr = "temp"
			}
			// Random whole-cell-aligned region 1–2 cells wide.
			q0 := rng.Intn(2)
			r0 := rng.Intn(2)
			wcells := 1 + rng.Intn(2)
			region := geom.NewRect(float64(q0*2), float64(r0*2), float64((q0+wcells)*2), float64((r0+1)*2))
			stored, err := f.InsertQuery(query.Query{Attr: attr, Region: region, Rate: 1 + rng.Float64()*50}, stream.NewCollector())
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			live = append(live, stored.ID)
		} else {
			idx := rng.Intn(len(live))
			if err := f.DeleteQuery(live[idx]); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			live = append(live[:idx], live[idx+1:]...)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, id := range live {
		if err := f.DeleteQuery(id); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPipelines() != 0 {
		t.Fatal("pipelines leaked after full cleanup")
	}
}

func TestQueryPlanAccessor(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	stored, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 5}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	plan := queryPlan(f, stored.ID)
	if plan == nil || len(plan.Rects) != 4 {
		t.Fatal("plan missing or wrong size")
	}
	if queryPlan(f, "nope") != nil {
		t.Fatal("unknown plan should be nil")
	}
}

func TestTotalFlowAccumulates(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	if _, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	w := geom.Window{T0: 0, T1: 1, Rect: f.grid.Region()}
	b := stream.Batch{Attr: "rain", Window: w}
	rng := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), T: rng.Uniform(0, 1), X: rng.Uniform(0, 2), Y: rng.Uniform(0, 2)})
	}
	if err := f.Ingest(b); err != nil {
		t.Fatal(err)
	}
	flow := f.TotalFlow()
	if flow.TuplesIn == 0 || flow.RandomDraws == 0 {
		t.Fatalf("flow = %+v", flow)
	}
}

// TestCellScatterMatchesCellAt checks the map phase's counting scatter
// against the grouping it replaced — one grid.CellAt per tuple, appended to
// that cell's list: every materialized cell's run names exactly its tuples,
// by position, in batch order, tuples off the grid or in a cell without a
// pipeline are dropped, and the batch's sortedness is reported.
func TestCellScatterMatchesCellAt(t *testing.T) {
	g := fig2Grid(t)
	side := g.Side()
	// Every other cell is materialized, positions in row-major order.
	slots := make([]int32, side*side)
	pipes := 0
	for c := range slots {
		slots[c] = -1
		if c%2 == 0 {
			slots[c] = int32(pipes)
			pipes++
		}
	}
	rng := stats.NewRNG(5)
	for _, n := range []int{0, 1, 50, 2000} {
		tuples := make([]stream.Tuple, n)
		want := make([][]stream.Tuple, pipes)
		for i := range tuples {
			tuples[i] = stream.Tuple{ID: uint64(i + 1), T: rng.Float64(), X: rng.Uniform(-1, 7), Y: rng.Uniform(-1, 7)}
			if n == 50 {
				tuples[i].X = rng.Uniform(0, 2) // leave most cells empty
			}
			if cell, ok := g.CellAt(geom.Point{X: tuples[i].X, Y: tuples[i].Y}); ok {
				if slot := slots[cell.Q+cell.R*side]; slot >= 0 {
					want[slot] = append(want[slot], tuples[i])
				}
			}
		}
		var s cellScratch
		s.scatter(g, slots, pipes, tuples)
		for p, exp := range want {
			got := s.run(p)
			if len(got) != len(exp) {
				t.Fatalf("n=%d pipeline %d: %d positions, want %d", n, p, len(got), len(exp))
			}
			for i := range exp {
				if tuples[got[i]] != exp[i] {
					t.Fatalf("n=%d pipeline %d position %d names %v, want %v", n, p, i, tuples[got[i]], exp[i])
				}
			}
		}
		if want := slices.IsSortedFunc(tuples, stream.CompareTuples); s.sorted != want {
			t.Fatalf("n=%d sorted = %v, want %v", n, s.sorted, want)
		}
	}
}
