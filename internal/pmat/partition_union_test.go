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

// positions lists every position of b: a stage that kept the whole batch.
func positions(b stream.Batch) []uint32 {
	pos := make([]uint32, b.Len())
	for i := range pos {
		pos[i] = uint32(i)
	}
	return pos
}

func TestPartitionRouting(t *testing.T) {
	w := geom.Window{T0: 0, T1: 2, Rect: region4()}
	b := homogeneousBatch(t, 200, w, 20)
	p, _ := NewPartition("p", region4())
	left := p.Clip(nil, positions(b), b.Tuples, geom.NewRect(0, 0, 2, 4))
	right := p.Clip(nil, positions(b), b.Tuples, geom.NewRect(2, 0, 4, 4))
	// Every tuple routed exactly once (the branches tile the region).
	if len(left)+len(right) != b.Len() {
		t.Fatalf("routed %d+%d of %d", len(left), len(right), b.Len())
	}
	for _, at := range left {
		if b.Tuples[at].X >= 2 {
			t.Fatal("left branch received right-side tuple")
		}
	}
	for _, at := range right {
		if b.Tuples[at].X < 2 {
			t.Fatal("right branch received left-side tuple")
		}
	}
	if !slices.IsSorted(left) || !slices.IsSorted(right) {
		t.Fatal("a branch reordered its input")
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
	var s stats.Summary
	for trial := 0; trial < 25; trial++ {
		b := homogeneousBatch(t, inputRate, w, int64(700+trial))
		kept := p.Clip(nil, positions(b), b.Tuples, sub)
		s.Add(float64(len(kept)) / (w.Duration() * sub.Area()))
	}
	if math.Abs(s.Mean()-inputRate) > 4*s.StdErr()+1 {
		t.Fatalf("branch rate %g, want ≈%g", s.Mean(), inputRate)
	}
}

func TestPartitionDropsUncoveredTuples(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: region4()}
	b := homogeneousBatch(t, 100, w, 21)
	p, _ := NewPartition("p", region4())
	// The pass appends to what dst already holds.
	kept := p.Clip([]uint32{7}, positions(b), b.Tuples, geom.NewRect(0, 0, 1, 1))
	if kept[0] != 7 || len(kept)-1 >= b.Len() {
		t.Fatal("partition did not drop uncovered tuples")
	}
	stats := p.Stats()
	if stats.BatchesIn != 1 || stats.TuplesIn != uint64(b.Len()) || stats.TuplesOut != uint64(len(kept)-1) {
		t.Fatalf("stats %+v for %d in, %d kept", stats, b.Len(), len(kept)-1)
	}
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
	if u.Kind() != "U" || u.inputs != 2 {
		t.Fatal("identity wrong")
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
	// One merged slice counts a batch in per input.
	u.RecordMerged(3)
	if st := u.Stats(); st.BatchesIn != 4 || st.TuplesIn != 3 || st.TuplesOut != 3 {
		t.Fatalf("4-way merge accounted %+v", st)
	}
}
