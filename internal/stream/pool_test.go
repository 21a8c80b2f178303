package stream

import (
	"testing"
)

func TestBorrowTuplesCapacityAndReuse(t *testing.T) {
	b := BorrowTuples(10)
	if len(b.Tuples) != 0 {
		t.Fatalf("borrowed buffer not empty: len=%d", len(b.Tuples))
	}
	if cap(b.Tuples) < 10 {
		t.Fatalf("borrowed buffer cap=%d, want >= 10", cap(b.Tuples))
	}
	for i := 0; i < 1000; i++ {
		b.Tuples = append(b.Tuples, Tuple{ID: uint64(i)})
	}
	b.Release()
	// A released buffer returns to the arena; re-borrowing must hand back an
	// empty slice even when the recycled buffer has grown.
	b2 := BorrowTuples(1)
	if len(b2.Tuples) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(b2.Tuples))
	}
	b2.Release()
	// Release on nil is a no-op (used by deferred cleanup paths).
	var nilBuf *TupleBuffer
	nilBuf.Release()
}

func TestCompareTuplesTotalOrder(t *testing.T) {
	a := Tuple{ID: 1, T: 1}
	b := Tuple{ID: 2, T: 1}
	c := Tuple{ID: 3, T: 2}
	if CompareTuples(a, b) >= 0 || CompareTuples(b, a) <= 0 {
		t.Error("equal times must tie-break on ID")
	}
	if CompareTuples(b, c) >= 0 || CompareTuples(c, a) <= 0 {
		t.Error("time must dominate the order")
	}
	if CompareTuples(a, a) != 0 {
		t.Error("a tuple must tie with itself")
	}
}
