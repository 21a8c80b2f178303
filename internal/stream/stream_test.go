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

func TestBaseEmitAndCounters(t *testing.T) {
	base := NewBase("op", "X")
	col := NewCollector()
	base.AddDownstream(col)
	b := makeBatch(10)
	base.RecordIn(b)
	if err := base.Emit(b); err != nil {
		t.Fatal(err)
	}
	s := base.Stats()
	if s.BatchesIn != 1 || s.TuplesIn != 10 || s.TuplesOut != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if col.Len() != 10 {
		t.Fatal("collector missed the batch")
	}
	if base.Name() != "op" || base.Kind() != "X" {
		t.Fatal("identity wrong")
	}
}

func TestBaseFanOut(t *testing.T) {
	base := NewBase("op", "X")
	c1, c2 := NewCollector(), NewCollector()
	base.AddDownstream(c1)
	base.AddDownstream(c2)
	base.AddDownstream(nil) // ignored
	if len(base.outs) != 2 {
		t.Fatalf("downstreams = %d", len(base.outs))
	}
	if err := base.Emit(makeBatch(5)); err != nil {
		t.Fatal(err)
	}
	if c1.Len() != 5 || c2.Len() != 5 {
		t.Fatal("fan-out failed")
	}
}

func TestEmitPropagatesErrors(t *testing.T) {
	base := NewBase("op", "X")
	sentinel := errors.New("boom")
	base.AddDownstream(failingSink{sentinel})
	err := base.Emit(makeBatch(1))
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectorResetAndCopy(t *testing.T) {
	c := NewCollector()
	_ = c.Process(makeBatch(4))
	tuples := c.Tuples()
	tuples[0].ID = 999
	if c.Tuples()[0].ID == 999 {
		t.Fatal("Tuples did not copy")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	_ = c.Process(makeBatch(7))
	_ = c.Process(makeBatch(3))
	if c.N() != 10 {
		t.Fatalf("N = %d", c.N())
	}
	c.Reset()
	if c.N() != 0 {
		t.Fatal("reset failed")
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
