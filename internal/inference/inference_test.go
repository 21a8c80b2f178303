package inference

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/stream"
)

func TestNewCoverageEstimatorValidation(t *testing.T) {
	if _, err := NewCoverageEstimator(0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestCoverageEstimatorUnbiasedOnHomogeneousSample(t *testing.T) {
	// A homogeneous sample over a region where 25% of the area is "raining"
	// must estimate coverage ≈ 0.25 — the property that motivates flattening.
	region := geom.NewRect(0, 0, 8, 8)
	rainArea := geom.NewRect(0, 0, 4, 4) // exactly a quarter
	rng := stats.NewRNG(1)
	est, err := NewCoverageEstimator(1)
	if err != nil {
		t.Fatal(err)
	}
	b := stream.Batch{Attr: "rain", Window: geom.Window{T0: 0, T1: 1, Rect: region}}
	for i := 0; i < 20000; i++ {
		x, y := rng.Uniform(0, 8), rng.Uniform(0, 8)
		v := 0.0
		if rainArea.Contains(geom.Point{X: x, Y: y}) {
			v = 1
		}
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), T: rng.Uniform(0, 1), X: x, Y: y, Value: v})
	}
	if err := est.Process(b); err != nil {
		t.Fatal(err)
	}
	out := est.Estimates()
	if len(out) != 1 {
		t.Fatalf("windows = %d", len(out))
	}
	e := out[0]
	if math.Abs(e.Coverage-0.25) > 0.02 {
		t.Fatalf("coverage = %g, want ≈0.25", e.Coverage)
	}
	if e.Lo > 0.25 || e.Hi < 0.25 {
		t.Fatalf("Wilson interval [%g, %g] misses the truth", e.Lo, e.Hi)
	}
	if e.N != 20000 {
		t.Fatalf("N = %d", e.N)
	}
}

func TestCoverageEstimatorWindowsSorted(t *testing.T) {
	est, _ := NewCoverageEstimator(2)
	b := stream.Batch{Attr: "rain"}
	for _, tt := range []float64{9, 1, 5, 3} {
		b.Tuples = append(b.Tuples, stream.Tuple{T: tt, Value: 1})
	}
	_ = est.Process(b)
	out := est.Estimates()
	if len(out) != 4 {
		t.Fatalf("windows = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].WindowStart >= out[i].WindowStart {
			t.Fatal("windows not sorted")
		}
	}
}

func TestWilsonDegenerate(t *testing.T) {
	lo, hi := wilson(0.5, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("n=0 interval = [%g, %g]", lo, hi)
	}
	lo, hi = wilson(1, 50)
	if hi > 1 || lo < 0.9 {
		t.Fatalf("p=1 interval = [%g, %g]", lo, hi)
	}
}

func TestEventDetectorHysteresis(t *testing.T) {
	if _, err := NewEventDetector(0.5, 0.5); err == nil {
		t.Fatal("Off >= On accepted")
	}
	d, err := NewEventDetector(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Signal: rises, flickers around On (no end: stays above Off), ends.
	series := []struct{ t0, t1, v float64 }{
		{0, 1, 0.1}, {1, 2, 0.6}, {2, 3, 0.45}, {3, 4, 0.7}, {4, 5, 0.2}, {5, 6, 0.1},
	}
	for _, p := range series {
		d.Observe(p.t0, p.t1, p.v)
	}
	events := d.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 (hysteresis must suppress the flicker)", len(events))
	}
	ev := events[0]
	if ev.Start != 1 || ev.End != 4 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Peak != 0.7 {
		t.Fatalf("peak = %g", ev.Peak)
	}
}

func TestEventDetectorFinishClosesOpenEpisode(t *testing.T) {
	d, _ := NewEventDetector(0.5, 0.3)
	d.Observe(0, 1, 0.8)
	events := d.Finish(3)
	if len(events) != 1 || events[0].End != 3 {
		t.Fatalf("finish: %+v", events)
	}
	// Finish again is a no-op.
	if len(d.Finish(5)) != 1 {
		t.Fatal("double finish duplicated the event")
	}
}

func TestEventDetectorNoEvents(t *testing.T) {
	d, _ := NewEventDetector(0.5, 0.3)
	for i := 0; i < 10; i++ {
		d.Observe(float64(i), float64(i+1), 0.2)
	}
	if len(d.Finish(10)) != 0 {
		t.Fatal("phantom events")
	}
}
