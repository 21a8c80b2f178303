package pmat

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/stream"
)

func TestNewPartitionValidation(t *testing.T) {
	if _, err := NewPartition("p", geom.Rect{}); err == nil {
		t.Error("empty region should error")
	}
	p, err := NewPartition("p", region4())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "P" || !p.region.Equal(region4()) {
		t.Fatal("identity wrong")
	}
}

func TestPartitionBranchValidation(t *testing.T) {
	p, _ := NewPartition("p", region4())
	if _, err := p.AddBranch("a", geom.Rect{}); err == nil {
		t.Error("empty branch should error")
	}
	if _, err := p.AddBranch("a", geom.NewRect(3, 3, 5, 5)); err == nil {
		t.Error("escaping branch should error")
	}
	if _, err := p.AddBranch("a", geom.NewRect(0, 0, 2, 4)); err != nil {
		t.Fatal(err)
	}
	// Overlapping branch violates R*₁ ∩ R*₂ = ∅.
	if _, err := p.AddBranch("b", geom.NewRect(1, 0, 3, 4)); err == nil {
		t.Error("overlapping branch should error")
	}
	if _, err := p.AddBranch("b", geom.NewRect(2, 0, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if len(p.ports) != 2 {
		t.Fatalf("branches = %d", len(p.ports))
	}
}

func TestPartitionRouting(t *testing.T) {
	w := geom.Window{T0: 0, T1: 2, Rect: region4()}
	b := homogeneousBatch(t, 200, w, 20)
	p, _ := NewPartition("p", region4())
	left, err := p.AddBranch("left", geom.NewRect(0, 0, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	right, err := p.AddBranch("right", geom.NewRect(2, 0, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	colL, colR := stream.NewCollector(), stream.NewCollector()
	left.AddDownstream(colL)
	right.AddDownstream(colR)
	if err := p.Process(b); err != nil {
		t.Fatal(err)
	}
	// Every tuple routed exactly once (branches tile the region).
	if colL.Len()+colR.Len() != b.Len() {
		t.Fatalf("routed %d+%d of %d", colL.Len(), colR.Len(), b.Len())
	}
	for _, tp := range colL.Tuples() {
		if tp.X >= 2 {
			t.Fatal("left branch received right-side tuple")
		}
	}
	for _, tp := range colR.Tuples() {
		if tp.X < 2 {
			t.Fatal("right branch received left-side tuple")
		}
	}
}

func TestPartitionPreservesRate(t *testing.T) {
	// The paper: partition splits into processes "of the same rate λ but on
	// different regions". Rate per unit volume in each branch region must
	// match the input rate.
	w := geom.Window{T0: 0, T1: 2, Rect: region4()}
	inputRate := 150.0
	p, _ := NewPartition("p", region4())
	sub := geom.NewRect(1, 1, 3, 3)
	port, _ := p.AddBranch("q", sub)
	col := stream.NewCollector()
	port.AddDownstream(col)
	var s stats.Summary
	for trial := 0; trial < 25; trial++ {
		col.Reset()
		if err := p.Process(homogeneousBatch(t, inputRate, w, int64(700+trial))); err != nil {
			t.Fatal(err)
		}
		s.Add(float64(col.Len()) / (w.Duration() * sub.Area()))
	}
	if math.Abs(s.Mean()-inputRate) > 4*s.StdErr()+1 {
		t.Fatalf("branch rate %g, want ≈%g", s.Mean(), inputRate)
	}
}

func TestPartitionDropsUncoveredTuples(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: region4()}
	b := homogeneousBatch(t, 100, w, 21)
	p, _ := NewPartition("p", region4())
	port, _ := p.AddBranch("q", geom.NewRect(0, 0, 1, 1))
	col := stream.NewCollector()
	port.AddDownstream(col)
	if err := p.Process(b); err != nil {
		t.Fatal(err)
	}
	if col.Len() >= b.Len() {
		t.Fatal("partition did not drop uncovered tuples")
	}
	stats := p.Stats()
	if stats.TuplesOut != uint64(col.Len()) {
		t.Fatalf("TuplesOut = %d, delivered %d", stats.TuplesOut, col.Len())
	}
}

func TestPartitionNoBranchesIsSink(t *testing.T) {
	p, _ := NewPartition("p", region4())
	b := homogeneousBatch(t, 10, geom.Window{T0: 0, T1: 1, Rect: region4()}, 22)
	if err := p.Process(b); err != nil {
		t.Fatal(err)
	}
	if p.Stats().TuplesOut != 0 {
		t.Fatal("branchless partition emitted tuples")
	}
}

func TestPortDownstreamManagement(t *testing.T) {
	p, _ := NewPartition("p", region4())
	port, _ := p.AddBranch("q", geom.NewRect(0, 0, 2, 2))
	col := stream.NewCollector()
	port.AddDownstream(col)
	port.AddDownstream(nil) // ignored
	if len(port.outs) != 1 {
		t.Fatalf("downstreams = %d", len(port.outs))
	}
	if port.label != "q" || !port.region.Equal(geom.NewRect(0, 0, 2, 2)) {
		t.Fatal("port identity wrong")
	}
}

// batchSink collects like stream.Collector and counts the batches it
// receives.
type batchSink struct {
	stream.Collector
	batches int
}

func (s *batchSink) Process(b stream.Batch) error {
	s.batches++
	return s.Collector.Process(b)
}

func TestNewUnionValidation(t *testing.T) {
	a := geom.NewRect(0, 0, 2, 2)
	b := geom.NewRect(2, 0, 4, 2)
	if _, err := NewUnion("u", a); err == nil {
		t.Error("single region should error")
	}
	if _, err := NewUnion("u", a, geom.Rect{}); err == nil {
		t.Error("empty region should error")
	}
	if _, err := NewUnion("u", a, geom.NewRect(1, 0, 3, 2)); err == nil {
		t.Error("overlapping regions should error")
	}
	// Gap: not a tiling.
	if _, err := NewUnion("u", a, geom.NewRect(3, 0, 5, 2)); err == nil {
		t.Error("gapped regions should error")
	}
	u, err := NewUnion("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Region().Equal(geom.NewRect(0, 0, 4, 2)) {
		t.Fatalf("union region = %v", u.Region())
	}
	if u.Kind() != "U" || len(u.inputs) != 2 {
		t.Fatal("identity wrong")
	}
	if _, err := u.Input(5); err == nil {
		t.Error("bad input index should error")
	}
}

func TestUnionMergesAlignedSlices(t *testing.T) {
	a := geom.NewRect(0, 0, 2, 2)
	b := geom.NewRect(2, 0, 4, 2)
	u, _ := NewUnion("u", a, b)
	col := &batchSink{}
	u.AddDownstream(col)
	wA := geom.Window{T0: 0, T1: 1, Rect: a}
	wB := geom.Window{T0: 0, T1: 1, Rect: b}
	in0, _ := u.Input(0)
	in1, _ := u.Input(1)
	if err := in0.Process(stream.Batch{Attr: "x", Window: wA, Tuples: []stream.Tuple{{ID: 1, T: 0.5, X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if col.batches != 0 {
		t.Fatal("union emitted before all inputs arrived")
	}
	if len(u.pending) != 1 {
		t.Fatalf("pending = %d", len(u.pending))
	}
	if err := in1.Process(stream.Batch{Attr: "x", Window: wB, Tuples: []stream.Tuple{{ID: 2, T: 0.2, X: 3, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if col.batches != 1 || col.Len() != 2 {
		t.Fatalf("merged %d batches, %d tuples", col.batches, col.Len())
	}
	tuples := col.Tuples()
	if tuples[0].T > tuples[1].T {
		t.Fatal("merged tuples not time-sorted")
	}
	if len(u.pending) != 0 {
		t.Fatal("slice not cleared")
	}
}

func TestUnionPreservesRate(t *testing.T) {
	// Same-rate processes on adjacent regions union to the same rate on the
	// combined region.
	a := geom.NewRect(0, 0, 2, 4)
	bRect := geom.NewRect(2, 0, 4, 4)
	u, _ := NewUnion("u", a, bRect)
	col := stream.NewCollector()
	u.AddDownstream(col)
	rate := 80.0
	var s stats.Summary
	in0, _ := u.Input(0)
	in1, _ := u.Input(1)
	for trial := 0; trial < 25; trial++ {
		col.Reset()
		wA := geom.Window{T0: float64(trial), T1: float64(trial + 1), Rect: a}
		wB := geom.Window{T0: float64(trial), T1: float64(trial + 1), Rect: bRect}
		ba := homogeneousBatch(t, rate, wA, int64(800+trial))
		bb := homogeneousBatch(t, rate, wB, int64(900+trial))
		if err := in0.Process(ba); err != nil {
			t.Fatal(err)
		}
		if err := in1.Process(bb); err != nil {
			t.Fatal(err)
		}
		s.Add(float64(col.Len()) / (1 * u.Region().Area()))
	}
	if math.Abs(s.Mean()-rate) > 4*s.StdErr()+1 {
		t.Fatalf("union rate %g, want ≈%g", s.Mean(), rate)
	}
}

func TestUnionDuplicateDelivery(t *testing.T) {
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(1, 0, 2, 1)
	u, _ := NewUnion("u", a, b)
	col := &batchSink{}
	u.AddDownstream(col)
	w := geom.Window{T0: 0, T1: 1, Rect: a}
	in0, _ := u.Input(0)
	in1, _ := u.Input(1)
	_ = in0.Process(stream.Batch{Attr: "x", Window: w, Tuples: []stream.Tuple{{ID: 1}}})
	// Duplicate from the same input folds in without completing.
	_ = in0.Process(stream.Batch{Attr: "x", Window: w, Tuples: []stream.Tuple{{ID: 2}}})
	if col.batches != 0 {
		t.Fatal("duplicate input completed the slice")
	}
	_ = in1.Process(stream.Batch{Attr: "x", Window: geom.Window{T0: 0, T1: 1, Rect: b}})
	if col.batches != 1 || col.Len() != 2 {
		t.Fatalf("merged %d tuples in %d batches", col.Len(), col.batches)
	}
}

func TestUnionFourWayTiling(t *testing.T) {
	// A 2×2 block of cells tiles a square: the n-ary union accepts it.
	cells := []geom.Rect{
		geom.NewRect(0, 0, 1, 1), geom.NewRect(1, 0, 2, 1),
		geom.NewRect(0, 1, 1, 2), geom.NewRect(1, 1, 2, 2),
	}
	u, err := NewUnion("u", cells...)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Region().Equal(geom.NewRect(0, 0, 2, 2)) {
		t.Fatalf("region = %v", u.Region())
	}
	col := &batchSink{}
	u.AddDownstream(col)
	for i := range cells {
		in, _ := u.Input(i)
		w := geom.Window{T0: 0, T1: 1, Rect: cells[i]}
		if err := in.Process(stream.Batch{Attr: "x", Window: w, Tuples: []stream.Tuple{{ID: uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if col.batches != 1 || col.Len() != 4 {
		t.Fatalf("4-way merge: %d batches %d tuples", col.batches, col.Len())
	}
}

func TestUnionProcessDefaultsToInput0(t *testing.T) {
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(1, 0, 2, 1)
	u, _ := NewUnion("u", a, b)
	col := &batchSink{}
	u.AddDownstream(col)
	w := geom.Window{T0: 0, T1: 1, Rect: a}
	if err := u.Process(stream.Batch{Attr: "x", Window: w}); err != nil {
		t.Fatal(err)
	}
	in1, _ := u.Input(1)
	_ = in1.Process(stream.Batch{Attr: "x", Window: geom.Window{T0: 0, T1: 1, Rect: b}})
	if col.batches != 1 {
		t.Fatal("Process did not act as input 0")
	}
}

// Tuples equal in (T, ID) on different inputs come out in input order,
// whichever input delivers first.
func TestUnionTiesResolveByInput(t *testing.T) {
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(1, 0, 2, 1)
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		u, _ := NewUnion("u", a, b)
		col := stream.NewCollector()
		u.AddDownstream(col)
		for _, i := range order {
			in, _ := u.Input(i)
			v := float64(i)
			batch := stream.Batch{Attr: "x", Window: geom.Window{T0: 0, T1: 1, Rect: []geom.Rect{a, b}[i]}, Tuples: []stream.Tuple{
				{ID: 1, T: 0.5, Value: v}, {ID: 2, T: 0.5, Value: v},
			}}
			if err := in.Process(batch); err != nil {
				t.Fatal(err)
			}
		}
		got := col.Tuples()
		want := []stream.Tuple{{ID: 1, T: 0.5}, {ID: 1, T: 0.5, Value: 1}, {ID: 2, T: 0.5}, {ID: 2, T: 0.5, Value: 1}}
		if !slices.Equal(got, want) {
			t.Fatalf("delivery order %v: merged %v, want %v", order, got, want)
		}
	}
}
