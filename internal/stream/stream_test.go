package stream

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func testWindow() geom.Window {
	return geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 4, 4)}
}

func makeBatch(n int) Batch {
	b := Batch{Attr: "temp", Window: testWindow()}
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		b.Tuples = append(b.Tuples, Tuple{
			ID: uint64(i), Attr: "temp",
			T: 2 * f, X: 4 * f, Y: 4 * (1 - f), Value: f, Sensor: i % 7,
		})
	}
	return b
}

// failingSink is a Processor that refuses every batch with err.
type failingSink struct{ err error }

func (s failingSink) Process(Batch) error { return s.err }

// TestTupleEventAndString: String renders the tuple's space-time event
// (t, x, y) with its attribute, id and value.
func TestTupleEventAndString(t *testing.T) {
	tp := Tuple{ID: 3, Attr: "rain", T: 1, X: 2, Y: 3, Value: 1}
	if got, want := tp.String(), "rain#3(t=1.000 x=2.000 y=3.000 v=1.000)"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestBatchBasics(t *testing.T) {
	b := makeBatch(32)
	if b.Len() != 32 {
		t.Fatalf("len = %d", b.Len())
	}
	// volume = 2·16 = 32; rate = 1.
	if got := b.MeasuredRate(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rate = %g", got)
	}
	empty := Batch{}
	if empty.MeasuredRate() != 0 {
		t.Fatal("empty batch rate must be 0")
	}
}

// TestBaseEmitAndCounters: the Record methods add up in Stats, and Base
// carries the operator's identity.
func TestBaseEmitAndCounters(t *testing.T) {
	base := NewBase("op", "X")
	base.RecordBatchIn(10)
	base.RecordBatchesIn(2, 5)
	base.RecordOut(7)
	base.RecordDraws(10)
	s := base.Stats()
	if s.BatchesIn != 3 || s.TuplesIn != 15 || s.TuplesOut != 7 || s.RandomDraws != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if base.Name() != "op" || base.Kind() != "X" {
		t.Fatal("identity wrong")
	}
}

func TestCollectorTuplesCopies(t *testing.T) {
	c := NewCollector()
	_ = c.Process(makeBatch(4))
	tuples := c.Tuples()
	tuples[0].ID = 999
	if c.Tuples()[0].ID == 999 {
		t.Fatal("Tuples did not copy")
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTee(t *testing.T) {
	c1, c2 := NewCollector(), NewCollector()
	tee := &Tee{Children: []Processor{c1, c2}}
	if err := tee.Process(makeBatch(2)); err != nil {
		t.Fatal(err)
	}
	if c1.Len() != 2 || c2.Len() != 2 {
		t.Fatal("tee failed")
	}
	sentinel := errors.New("x")
	tee2 := &Tee{Children: []Processor{failingSink{sentinel}}}
	if err := tee2.Process(makeBatch(1)); !errors.Is(err, sentinel) {
		t.Fatal("tee did not propagate error")
	}
}
