package stream

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mdpp"
)

func TestScratchBuffers(t *testing.T) {
	fb := BorrowFloats(300)
	if len(fb.Vals) != 300 {
		t.Fatalf("BorrowFloats len = %d, want 300", len(fb.Vals))
	}
	fb.Release()
	bb := BorrowBools(5000)
	if len(bb.Vals) != 5000 {
		t.Fatalf("BorrowBools len = %d, want 5000", len(bb.Vals))
	}
	bb.Release()
	// Nil releases are no-ops.
	(*FloatBuffer)(nil).Release()
	(*BoolBuffer)(nil).Release()
}

func TestAppendEventsMatchesEvents(t *testing.T) {
	b := Batch{
		Attr:   "rain",
		Window: geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)},
		Tuples: []Tuple{
			{ID: 1, T: 0.25, X: 0.5, Y: 1.5},
			{ID: 2, T: 0.75, X: 1.5, Y: 0.5},
		},
	}
	want := b.Events()
	prefix := mdpp.Event{T: 9}
	got := b.AppendEvents([]mdpp.Event{prefix})
	if len(got) != 1+len(want) || got[0] != prefix {
		t.Fatalf("AppendEvents = %+v, want %+v after the prefix", got, want)
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got[1+i], want[i])
		}
	}
}
