package pmat

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// A slice that never completes must be evicted (force-emitted, oldest first)
// once a newer slice completes, so long-running engines cannot leak pending
// merges.
func TestUnionEvictsStaleSlices(t *testing.T) {
	a := geom.NewRect(0, 0, 2, 2)
	b := geom.NewRect(2, 0, 4, 2)
	u, _ := NewUnion("u", a, b)
	col := &batchSink{}
	u.AddDownstream(col)
	in0, _ := u.Input(0)
	in1, _ := u.Input(1)
	// Slice [0,1): only input 0 delivers — stays pending.
	w0 := geom.Window{T0: 0, T1: 1, Rect: a}
	if err := in0.Process(stream.Batch{Attr: "x", Window: w0, Tuples: []stream.Tuple{{ID: 1, T: 0.5, X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if len(u.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(u.pending))
	}
	// Slice [1,2): both inputs deliver — completes, and the stale [0,1)
	// slice must be evicted and emitted first.
	wA := geom.Window{T0: 1, T1: 2, Rect: a}
	wB := geom.Window{T0: 1, T1: 2, Rect: b}
	if err := in0.Process(stream.Batch{Attr: "x", Window: wA, Tuples: []stream.Tuple{{ID: 2, T: 1.5, X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := in1.Process(stream.Batch{Attr: "x", Window: wB, Tuples: []stream.Tuple{{ID: 3, T: 1.2, X: 3, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if len(u.pending) != 0 {
		t.Fatalf("stale slice not evicted: pending = %d", len(u.pending))
	}
	if col.batches != 2 {
		t.Fatalf("batches = %d, want 2 (evicted partial then complete)", col.batches)
	}
	tuples := col.Tuples()
	if len(tuples) != 3 {
		t.Fatalf("tuples = %d, want 3", len(tuples))
	}
	// Oldest slice first, then the completed one in merged (T, ID) order.
	wantIDs := []uint64{1, 3, 2}
	for i, want := range wantIDs {
		if tuples[i].ID != want {
			t.Fatalf("position %d: got ID %d, want %d", i, tuples[i].ID, want)
		}
	}
}

// The pending map is bounded even when no slice ever completes: overflowing
// maxPendingSlices force-emits the oldest.
func TestUnionBoundsPendingMap(t *testing.T) {
	a := geom.NewRect(0, 0, 2, 2)
	b := geom.NewRect(2, 0, 4, 2)
	u, _ := NewUnion("u", a, b)
	col := &batchSink{}
	u.AddDownstream(col)
	in0, _ := u.Input(0)
	for i := 0; i < maxPendingSlices+10; i++ {
		w := geom.Window{T0: float64(i), T1: float64(i + 1), Rect: a}
		if err := in0.Process(stream.Batch{Attr: "x", Window: w, Tuples: []stream.Tuple{{ID: uint64(i + 1), T: float64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(u.pending) > maxPendingSlices {
		t.Fatalf("pending = %d, want <= %d", len(u.pending), maxPendingSlices)
	}
	if col.batches != 10 {
		t.Fatalf("evicted batches = %d, want 10", col.batches)
	}
	// The evicted slices are the oldest ones, in time order.
	tuples := col.Tuples()
	for i := range tuples {
		if tuples[i].ID != uint64(i+1) {
			t.Fatalf("eviction order wrong at %d: ID %d", i, tuples[i].ID)
		}
	}
}
