package mdpp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
)

func unitRegion() geom.Rect { return geom.NewRect(0, 0, 4, 4) }

func TestNewHomogeneous(t *testing.T) {
	p, err := NewHomogeneous(5, unitRegion())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsHomogeneous() {
		t.Fatal("constant-rate process not homogeneous")
	}
	r, ok := p.ConstantRate()
	if !ok || r != 5 {
		t.Fatalf("rate = %g, ok=%v", r, ok)
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
	if _, err := NewHomogeneous(-1, unitRegion()); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewHomogeneous(1, geom.Rect{}); err == nil {
		t.Error("empty region should error")
	}
}

func TestNewInhomogeneous(t *testing.T) {
	lin := intensity.NewLinear(intensity.Theta{1, 0, 0.5, 0})
	p, err := NewInhomogeneous(lin, unitRegion())
	if err != nil {
		t.Fatal(err)
	}
	if p.IsHomogeneous() {
		t.Fatal("linear process reported homogeneous")
	}
	if _, ok := p.ConstantRate(); ok {
		t.Fatal("ConstantRate should fail for inhomogeneous")
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
	if _, err := NewInhomogeneous(nil, unitRegion()); err == nil {
		t.Error("nil intensity should error")
	}
}

func TestSampleHomogeneousCount(t *testing.T) {
	rng := stats.NewRNG(1)
	p, _ := NewHomogeneous(10, unitRegion())
	w := geom.Window{T0: 0, T1: 2, Rect: unitRegion()} // volume 32, expect 320
	var s stats.Summary
	for i := 0; i < 200; i++ {
		ev, err := p.Sample(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(float64(len(ev)))
	}
	want := p.ExpectedCount(w)
	if math.Abs(want-320) > 1e-9 {
		t.Fatalf("expected count = %g", want)
	}
	if math.Abs(s.Mean()-want) > 4*s.StdErr()+1 {
		t.Fatalf("mean sample count %g, want ≈%g", s.Mean(), want)
	}
}

func TestSampleEventsSortedAndInWindow(t *testing.T) {
	rng := stats.NewRNG(2)
	p, _ := NewHomogeneous(50, unitRegion())
	w := geom.Window{T0: 1, T1: 3, Rect: geom.NewRect(1, 1, 3, 3)}
	ev, err := p.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 {
		t.Fatal("no events sampled")
	}
	for i, e := range ev {
		if e.T < w.T0 || e.T >= w.T1 || !w.Rect.Contains(geom.Point{X: e.X, Y: e.Y}) {
			t.Fatalf("event %d outside window: %+v", i, e)
		}
		if i > 0 && ev[i-1].T > e.T {
			t.Fatal("events not sorted by time")
		}
	}
}

func TestSampleUniformityOfHomogeneous(t *testing.T) {
	rng := stats.NewRNG(3)
	p, _ := NewHomogeneous(200, unitRegion())
	w := geom.Window{T0: 0, T1: 2, Rect: unitRegion()}
	ev, err := p.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := SpatialCounts(ev, w, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pval, err := grid.UniformityPValue()
	if err != nil {
		t.Fatal(err)
	}
	if pval < 0.001 {
		t.Fatalf("homogeneous sample not spatially uniform: p = %g", pval)
	}
	// Times should be uniform too.
	times := make([]float64, len(ev))
	for i, e := range ev {
		times[i] = e.T
	}
	ks, err := stats.KSUniform(times, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ks.PValue < 0.001 {
		t.Fatalf("times not uniform: p = %g", ks.PValue)
	}
}

func TestSampleInhomogeneousExpectedCount(t *testing.T) {
	rng := stats.NewRNG(4)
	lin := intensity.NewLinear(intensity.Theta{2, 0, 1, 0}) // rises with x
	p, _ := NewInhomogeneous(lin, unitRegion())
	w := geom.Window{T0: 0, T1: 1, Rect: unitRegion()}
	want := p.ExpectedCount(w)
	var s stats.Summary
	for i := 0; i < 300; i++ {
		ev, err := p.Sample(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(float64(len(ev)))
	}
	if math.Abs(s.Mean()-want) > 4*s.StdErr()+1 {
		t.Fatalf("mean count %g, want ≈%g", s.Mean(), want)
	}
}

func TestSampleInhomogeneousSkew(t *testing.T) {
	rng := stats.NewRNG(5)
	lin := intensity.NewLinear(intensity.Theta{1, 0, 3, 0})
	p, _ := NewInhomogeneous(lin, unitRegion())
	w := geom.Window{T0: 0, T1: 2, Rect: unitRegion()}
	ev, err := p.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	left, right := 0, 0
	for _, e := range ev {
		if e.X < 2 {
			left++
		} else {
			right++
		}
	}
	// Intensity at x∈[2,4] is higher, so right must dominate clearly.
	if right <= left {
		t.Fatalf("no skew: left=%d right=%d", left, right)
	}
}

func TestSampleClipsToProcessRegion(t *testing.T) {
	rng := stats.NewRNG(6)
	sub := geom.NewRect(0, 0, 2, 2)
	p, _ := NewHomogeneous(100, sub)
	w := geom.Window{T0: 0, T1: 1, Rect: unitRegion()} // wider than the process
	ev, err := p.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ev {
		if !sub.Contains(geom.Point{X: e.X, Y: e.Y}) {
			t.Fatalf("event escaped process region: %+v", e)
		}
	}
}

func TestSampleDisjointWindow(t *testing.T) {
	rng := stats.NewRNG(7)
	p, _ := NewHomogeneous(100, geom.NewRect(0, 0, 1, 1))
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(5, 5, 6, 6)}
	ev, err := p.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatal("events sampled outside the process region")
	}
}

func TestSampleRequiresRNG(t *testing.T) {
	p, _ := NewHomogeneous(1, unitRegion())
	if _, err := p.Sample(geom.Window{T0: 0, T1: 1, Rect: unitRegion()}, nil); err == nil {
		t.Fatal("nil RNG should error")
	}
}

func TestExpectedCountProperty(t *testing.T) {
	// Expected count scales linearly with rate and volume.
	f := func(rate, dur float64) bool {
		r := 0.1 + math.Abs(math.Mod(rate, 50))
		d := 0.1 + math.Abs(math.Mod(dur, 10))
		p, err := NewHomogeneous(r, unitRegion())
		if err != nil {
			return false
		}
		w := geom.Window{T0: 0, T1: d, Rect: unitRegion()}
		want := r * d * unitRegion().Area()
		return math.Abs(p.ExpectedCount(w)-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialCountsErrors(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: unitRegion()}
	if _, err := SpatialCounts(nil, w, 0, 2); err == nil {
		t.Fatal("invalid grid dims should error")
	}
}
