package pmat

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stats"
	"repro/internal/stream"
)

// inhomogeneousBatch samples a skewed process into a batch.
func inhomogeneousBatch(t testing.TB, f intensity.Func, w geom.Window, seed int64) stream.Batch {
	t.Helper()
	p, err := mdpp.NewInhomogeneous(f, w.Rect)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Sample(w, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := stream.Batch{Attr: "rain", Window: w}
	for i, e := range ev {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), Attr: "rain", T: e.T, X: e.X, Y: e.Y})
	}
	return b
}

// skewedIntensity is a strongly inhomogeneous spatial rate.
func skewedIntensity(t testing.TB) intensity.Func {
	t.Helper()
	h, err := intensity.NewHotspot(5, 120, 3, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewFlattenValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := NewFlatten("f", FlattenConfig{TargetRate: 0}, rng); err == nil {
		t.Error("zero target should error")
	}
	if _, err := NewFlatten("f", FlattenConfig{TargetRate: 1}, nil); err == nil {
		t.Error("nil RNG should error")
	}
	if _, err := NewFlatten("f", FlattenConfig{TargetRate: 1, Mode: EstimatorKnown}, rng); err == nil {
		t.Error("EstimatorKnown without Known should error")
	}
	f, err := NewFlatten("f", FlattenConfig{TargetRate: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != "F" || f.TargetRate() != 3 {
		t.Fatal("identity wrong")
	}
	if err := f.SetTargetRate(-1); err == nil {
		t.Error("negative target should error")
	}
	if err := f.SetTargetRate(5); err != nil || f.TargetRate() != 5 {
		t.Error("SetTargetRate failed")
	}
}

func TestEstimatorModeString(t *testing.T) {
	if EstimatorMLE.String() != "mle" || EstimatorKnown.String() != "known" {
		t.Fatal("mode strings wrong")
	}
	if EstimatorMode(99).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// flattenUniformity runs Flatten over a skewed batch and returns the spatial
// uniformity p-values before and after, plus the output rate.
func flattenUniformity(t *testing.T, mode EstimatorMode, known intensity.Func, seed int64) (before, after, outRate, target float64) {
	t.Helper()
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 6, 6)}
	b := inhomogeneousBatch(t, skewedIntensity(t), w, seed)
	target = 0.3 * b.MeasuredRate() // achievable without many violations

	gIn, _ := stats.NewGrid2D(0, 6, 0, 6, 3, 3)
	for _, tp := range b.Tuples {
		gIn.Add(tp.X, tp.Y)
	}
	before, _ = gIn.UniformityPValue()

	f, err := NewFlatten("f", FlattenConfig{TargetRate: target, Mode: mode, Known: known}, stats.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	kept := flattenSurvivors(t, f, b)
	gOut, _ := stats.NewGrid2D(0, 6, 0, 6, 3, 3)
	for _, tp := range kept {
		gOut.Add(tp.X, tp.Y)
	}
	after, _ = gOut.UniformityPValue()
	outRate = float64(len(kept)) / w.Volume()
	return before, after, outRate, target
}

func TestFlattenHomogenizesKnownIntensity(t *testing.T) {
	before, after, _, _ := flattenUniformity(t, EstimatorKnown, skewedIntensity(t), 42)
	if before > 1e-6 {
		t.Fatalf("input unexpectedly uniform: p = %g", before)
	}
	if after < 0.001 {
		t.Fatalf("flattened output not uniform: p = %g", after)
	}
}

func TestFlattenHomogenizesWithMLE(t *testing.T) {
	// The linear Eq.(1) model cannot represent a Gaussian bump exactly, so
	// use a linear truth for the MLE mode test.
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 6, 6)}
	lin := intensity.NewLinear(intensity.Theta{2, 0, 8, 4})
	b := inhomogeneousBatch(t, lin, w, 43)
	target := 0.3 * b.MeasuredRate()
	f, err := NewFlatten("f", FlattenConfig{TargetRate: target, Mode: EstimatorMLE}, stats.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	gOut, _ := stats.NewGrid2D(0, 6, 0, 6, 3, 3)
	for _, tp := range flattenSurvivors(t, f, b) {
		gOut.Add(tp.X, tp.Y)
	}
	p, _ := gOut.UniformityPValue()
	if p < 0.001 {
		t.Fatalf("MLE-flattened output not uniform: p = %g", p)
	}
}

func TestFlattenHitsTargetCount(t *testing.T) {
	// With Eq. (3), E[retained] = λ̄·vol (the per-batch target count).
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 6, 6)}
	lam := skewedIntensity(t)
	target := 2.0 // well below input rate: no violations
	var s stats.Summary
	for trial := 0; trial < 20; trial++ {
		b := inhomogeneousBatch(t, lam, w, int64(50+trial))
		f, err := NewFlatten("f", FlattenConfig{TargetRate: target, Mode: EstimatorKnown, Known: lam}, stats.NewRNG(int64(70+trial)))
		if err != nil {
			t.Fatal(err)
		}
		kept := flattenSurvivors(t, f, b)
		rep := f.LastReport()
		if rep.Violations > rep.N/20 {
			t.Fatalf("unexpected violations: %d of %d", rep.Violations, rep.N)
		}
		s.Add(float64(len(kept)) / w.Volume())
	}
	if math.Abs(s.Mean()-target) > 4*s.StdErr()+0.1 {
		t.Fatalf("output rate %g, want ≈%g", s.Mean(), target)
	}
}

func TestFlattenViolationsGrowWithTarget(t *testing.T) {
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 6, 6)}
	lam := skewedIntensity(t)
	b := inhomogeneousBatch(t, lam, w, 99)
	inRate := b.MeasuredRate()
	var prev float64 = -1
	for _, mult := range []float64{0.2, 1.0, 3.0} {
		f, err := NewFlatten("f", FlattenConfig{TargetRate: mult * inRate, Mode: EstimatorKnown, Known: lam}, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		flattenSurvivors(t, f, b)
		nv := f.LastReport().Percent
		if nv < prev {
			t.Fatalf("violations not monotone: %g after %g at mult %g", nv, prev, mult)
		}
		prev = nv
	}
	if prev < 50 {
		t.Fatalf("3× over-request produced only %g%% violations", prev)
	}
}

func TestFlattenEmptyBatchIsFullViolation(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)}
	f, _ := NewFlatten("f", FlattenConfig{TargetRate: 5}, stats.NewRNG(1))
	kept := flattenSurvivors(t, f, stream.Batch{Attr: "rain", Window: w})
	rep := f.LastReport()
	if rep.Percent != 100 {
		t.Fatalf("empty batch N_v = %g, want 100", rep.Percent)
	}
	if s := f.Stats(); s.BatchesIn != 1 || s.TuplesOut != 0 || len(kept) != 0 {
		t.Fatalf("stats %+v, %d survivors: an empty batch must still count as a batch", s, len(kept))
	}
}

func TestFlattenInvalidWindow(t *testing.T) {
	f, _ := NewFlatten("f", FlattenConfig{TargetRate: 5}, stats.NewRNG(1))
	if _, err := f.ProcessFused(stream.Batch{Attr: "rain"}, nil); err == nil {
		t.Fatal("empty window should error")
	}
}

func TestFlattenReportsAccumulate(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)}
	f, _ := NewFlatten("f", FlattenConfig{TargetRate: 1}, stats.NewRNG(5))
	for i := 0; i < 3; i++ {
		flattenSurvivors(t, f, inhomogeneousBatch(t, skewedIntensity(t), w, int64(i)))
	}
	reps := retainedReports(f)
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, r := range reps {
		if r.Batch != i+1 {
			t.Fatalf("batch seq %d at index %d", r.Batch, i)
		}
	}
}

func TestFlattenSmallBatchFallback(t *testing.T) {
	// Batches below minBatchForFit use the homogeneous fallback — output
	// should still have roughly the target count in expectation.
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)}
	f, _ := NewFlatten("f", FlattenConfig{TargetRate: 0.5}, stats.NewRNG(11))
	b := stream.Batch{Attr: "rain", Window: w}
	for i := 0; i < minBatchForFit-2; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), T: 0.5, X: 1, Y: 1})
	}
	kept := flattenSurvivors(t, f, b)
	if rep := f.LastReport(); rep.FitIterations != 0 || rep.FitNotConverged {
		t.Fatalf("a fit ran on %d tuples: %+v", b.Len(), rep)
	}
	// Target count = 0.5·4 = 2 of 6; all retaining probabilities equal 1/3.
	if len(kept) > 6 {
		t.Fatal("output exceeds input")
	}
}
