package pmat

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
)

// TestEq3NormalizationAblation ablates the λc normalization of Eq. (3)
// (DESIGN.md §2, "Interpretation note"). The normalization makes Flatten invariant to
// *multiplicative mis-scaling* of the intensity estimate: with
// p_i = T / (λ̃_i · Σ_j 1/λ̃_j), replacing λ̃ by c·λ̃ cancels, so only the
// shape of the estimate matters — exactly what an estimator can get right
// even when its absolute scale is off. The unnormalized alternative
// p_i = λ̄/λ̃_i has no such invariance: a 5× over-scaled estimate cuts its
// output by ~5×.
func TestEq3NormalizationAblation(t *testing.T) {
	region := geom.NewRect(0, 0, 6, 6)
	w := geom.Window{T0: 0, T1: 2, Rect: region}
	hot, err := intensity.NewHotspot(4, 80, 2, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := intensity.NewScale(hot, 5) // same shape, wrong scale
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(77)
	targetRate := 3.0
	targetCount := targetRate * w.Volume()

	var exact, misScaled, unnormScaled stats.Summary
	for trial := 0; trial < 25; trial++ {
		b := inhomogeneousBatch(t, hot, w, int64(500+trial))

		runFlatten := func(known intensity.Func) float64 {
			fl, err := NewFlatten("f", FlattenConfig{TargetRate: targetRate, Mode: EstimatorKnown, Known: known}, rng.Fork())
			if err != nil {
				t.Fatal(err)
			}
			return float64(len(flattenSurvivors(t, fl, b)))
		}
		exact.Add(runFlatten(hot))
		misScaled.Add(runFlatten(scaled))

		// Unnormalized ablation with the mis-scaled estimate.
		kept := 0
		for _, tp := range b.Tuples {
			if rng.Bernoulli(targetRate / scaled.Eval(tp.T, tp.X, tp.Y)) {
				kept++
			}
		}
		unnormScaled.Add(float64(kept))
	}
	if math.Abs(exact.Mean()-targetCount) > 4*exact.StdErr()+2 {
		t.Fatalf("exact-estimate flatten delivered %.1f, want ≈%.1f", exact.Mean(), targetCount)
	}
	// Scale invariance: the 5×-over-scaled estimate delivers the same count.
	if math.Abs(misScaled.Mean()-exact.Mean()) > 4*(exact.StdErr()+misScaled.StdErr())+2 {
		t.Fatalf("Eq.3 not scale-invariant: exact %.1f vs mis-scaled %.1f", exact.Mean(), misScaled.Mean())
	}
	// The unnormalized variant collapses to ≈ targetCount/5.
	if unnormScaled.Mean() > 0.4*targetCount {
		t.Fatalf("unnormalized ablation delivered %.1f — expected ≈%.1f (5x under)", unnormScaled.Mean(), targetCount/5)
	}
}

// TestFlattenOutputIndependentOfInputSkew verifies the calibration across
// different skew strengths: the output count must track λ̄·vol whether the
// input is mildly or extremely skewed (the property budget tuning relies on).
func TestFlattenOutputIndependentOfInputSkew(t *testing.T) {
	region := geom.NewRect(0, 0, 6, 6)
	w := geom.Window{T0: 0, T1: 2, Rect: region}
	targetRate := 2.0
	want := targetRate * w.Volume()
	for _, amp := range []float64{10, 40, 160} {
		hot, err := intensity.NewHotspot(4, amp, 2, 2, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		var out stats.Summary
		for trial := 0; trial < 20; trial++ {
			b := inhomogeneousBatch(t, hot, w, int64(700+trial))
			fl, err := NewFlatten("f", FlattenConfig{TargetRate: targetRate, Mode: EstimatorKnown, Known: hot}, stats.NewRNG(int64(800+trial)))
			if err != nil {
				t.Fatal(err)
			}
			out.Add(float64(len(flattenSurvivors(t, fl, b))))
		}
		if math.Abs(out.Mean()-want) > 4*out.StdErr()+2 {
			t.Errorf("amp %g: delivered %.1f, want ≈%.1f", amp, out.Mean(), want)
		}
	}
}
