package stream

import "testing"

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
