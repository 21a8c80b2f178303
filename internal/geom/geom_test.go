package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 6, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 5 || r.MaxY != 6 {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Fatalf("dimensions wrong: %v", r)
	}
	if r.IsEmpty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !NewRect(1, 1, 1, 5).IsEmpty() {
		t.Fatal("zero-width rect reported non-empty")
	}
	c := r.Center()
	if c.X != 2 || c.Y != 1 {
		t.Fatalf("center = %v", c)
	}
	if c.String() == "" || r.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	if !r.Contains(Point{0, 0}) {
		t.Error("lower-left corner must be inside")
	}
	if r.Contains(Point{1, 0}) || r.Contains(Point{0, 1}) || r.Contains(Point{1, 1}) {
		t.Error("upper edges must be outside (half-open)")
	}
	if !r.Contains(Point{0.5, 0.999}) {
		t.Error("interior point must be inside")
	}
}

func TestContainsRect(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.ContainsRect(NewRect(2, 2, 5, 5)) {
		t.Error("inner rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(NewRect(5, 5, 11, 6)) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	in, ok := a.Intersect(b)
	if !ok {
		t.Fatal("overlapping rects reported disjoint")
	}
	if !in.Equal(NewRect(2, 2, 4, 4)) {
		t.Fatalf("intersection = %v", in)
	}
	if _, ok := a.Intersect(NewRect(5, 5, 6, 6)); ok {
		t.Fatal("disjoint rects reported overlapping")
	}
	// Touching edges share no interior.
	if _, ok := a.Intersect(NewRect(4, 0, 8, 4)); ok {
		t.Fatal("edge-touching rects reported overlapping")
	}
}

func TestIntersectCommutes(t *testing.T) {
	f := func(x0, y0, x1, y1, u0, v0, u1, v1 float64) bool {
		bound := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := NewRect(bound(x0), bound(y0), bound(x1), bound(y1))
		b := NewRect(bound(u0), bound(v0), bound(u1), bound(v1))
		ia, oka := a.Intersect(b)
		ib, okb := b.Intersect(a)
		if oka != okb {
			return false
		}
		return !oka || ia.Equal(ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundingBox(t *testing.T) {
	bb, err := BoundingBox([]Rect{NewRect(0, 0, 1, 1), NewRect(3, -2, 4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Equal(NewRect(0, -2, 4, 5)) {
		t.Fatalf("bbox = %v", bb)
	}
	if _, err := BoundingBox(nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestDisjoint(t *testing.T) {
	if !Disjoint([]Rect{NewRect(0, 0, 1, 1), NewRect(1, 0, 2, 1), NewRect(0, 1, 1, 2)}) {
		t.Error("tiling rects reported overlapping")
	}
	if Disjoint([]Rect{NewRect(0, 0, 2, 2), NewRect(1, 1, 3, 3)}) {
		t.Error("overlapping rects reported disjoint")
	}
	if !Disjoint(nil) {
		t.Error("empty set is vacuously disjoint")
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(5, 1, NewRect(0, 0, 2, 3))
	if w.T0 != 1 || w.T1 != 5 {
		t.Fatal("NewWindow did not normalize time order")
	}
	if w.Duration() != 4 || w.Volume() != 24 {
		t.Fatalf("duration/volume = %g/%g", w.Duration(), w.Volume())
	}
	if w.IsEmpty() {
		t.Fatal("non-empty window reported empty")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.String() == "" {
		t.Error("String() empty")
	}
	empty := Window{T0: 1, T1: 1, Rect: NewRect(0, 0, 1, 1)}
	if !empty.IsEmpty() || empty.Validate() == nil {
		t.Error("zero-duration window must be empty/invalid")
	}
}

func TestWithRect(t *testing.T) {
	w := NewWindow(0, 1, NewRect(0, 0, 4, 4))
	w2 := w.WithRect(NewRect(1, 1, 2, 2))
	if w2.T0 != 0 || w2.T1 != 1 || !w2.Rect.Equal(NewRect(1, 1, 2, 2)) {
		t.Fatalf("WithRect = %v", w2)
	}
}
