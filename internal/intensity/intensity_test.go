package intensity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func box(t0, t1, x0, y0, x1, y1 float64) geom.Window {
	return geom.Window{T0: t0, T1: t1, Rect: geom.NewRect(x0, y0, x1, y1)}
}

func TestConstant(t *testing.T) {
	c, err := NewConstant(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Eval(1, 2, 3) != 3 {
		t.Fatal("Eval wrong")
	}
	w := box(0, 2, 0, 0, 3, 4)
	if got := c.IntegralOver(w); math.Abs(got-3*24) > 1e-12 {
		t.Fatalf("integral = %g", got)
	}
	if c.MaxOver(w) != 3 {
		t.Fatal("max wrong")
	}
	if _, err := NewConstant(-1); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := NewConstant(math.NaN()); err == nil {
		t.Error("NaN rate should error")
	}
}

func TestLinearEvalAndFloor(t *testing.T) {
	l := NewLinear(Theta{1, 2, 3, 4})
	if got := l.Eval(1, 1, 1); math.Abs(got-10) > 1e-12 {
		t.Fatalf("Eval = %g", got)
	}
	// Strongly negative region clamps at the floor.
	neg := NewLinear(Theta{-100, 0, 0, 0})
	if got := neg.Eval(0, 0, 0); got != DefaultFloor {
		t.Fatalf("floor not applied: %g", got)
	}
}

func TestLinearIntegralMatchesNumeric(t *testing.T) {
	l := NewLinear(Theta{5, 0.5, -0.2, 0.3})
	w := box(0, 4, 1, 1, 3, 5)
	analytic := l.IntegralOver(w)
	numeric := NumericIntegral(l, w, 32)
	if math.Abs(analytic-numeric) > 1e-6*math.Abs(numeric) {
		t.Fatalf("analytic %g vs numeric %g", analytic, numeric)
	}
}

func TestLinearIntegralNonNegative(t *testing.T) {
	l := NewLinear(Theta{-10, 0, 0, 0})
	if got := l.IntegralOver(box(0, 1, 0, 0, 1, 1)); got != 0 {
		t.Fatalf("negative-rate integral = %g, want clamped 0", got)
	}
}

func TestLinearMaxOverIsUpperBound(t *testing.T) {
	l := NewLinear(Theta{2, 1, -0.5, 0.25})
	w := box(0, 3, -1, -1, 2, 2)
	bound := l.MaxOver(w)
	f := func(a, b, c float64) bool {
		tt := w.T0 + math.Mod(math.Abs(a), w.Duration())
		x := w.Rect.MinX + math.Mod(math.Abs(b), w.Rect.Width())
		y := w.Rect.MinY + math.Mod(math.Abs(c), w.Rect.Height())
		return l.Eval(tt, x, y) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatures(t *testing.T) {
	f := Features(2, 3, 4)
	want := [4]float64{1, 2, 3, 4}
	if f != want {
		t.Fatalf("Features = %v", f)
	}
}

func TestFeatureIntegralsMatchNumeric(t *testing.T) {
	w := box(1, 3, 0, 2, 4, 5)
	fi := FeatureIntegrals(w)
	// Compare against numerically integrating each basis function.
	bases := []Func{
		NewLinear(Theta{1, 0, 0, 0}),
		NewLinear(Theta{0, 1, 0, 0}),
		NewLinear(Theta{0, 0, 1, 0}),
		NewLinear(Theta{0, 0, 0, 1}),
	}
	for k, b := range bases {
		numeric := NumericIntegral(b, w, 24)
		if math.Abs(fi[k]-numeric) > 1e-6*math.Abs(numeric)+1e-9 {
			t.Errorf("feature %d: analytic %g vs numeric %g", k, fi[k], numeric)
		}
	}
}

func TestHotspotEval(t *testing.T) {
	h, err := NewHotspot(1, 10, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Eval(0, 0, 0); math.Abs(got-11) > 1e-12 {
		t.Fatalf("peak = %g", got)
	}
	far := h.Eval(0, 100, 100)
	if math.Abs(far-1) > 1e-9 {
		t.Fatalf("far value = %g, want ≈base", far)
	}
	if _, err := NewHotspot(-1, 1, 0, 0, 1); err == nil {
		t.Error("negative base should error")
	}
	if _, err := NewHotspot(1, 1, 0, 0, 0); err == nil {
		t.Error("zero sigma should error")
	}
}

func TestHotspotIntegralMatchesNumeric(t *testing.T) {
	h, _ := NewHotspot(0.5, 8, 2, 3, 1.5)
	w := box(0, 2, 0, 0, 5, 6)
	analytic := h.IntegralOver(w)
	numeric := NumericIntegral(h, w, 48)
	if math.Abs(analytic-numeric) > 1e-3*numeric {
		t.Fatalf("analytic %g vs numeric %g", analytic, numeric)
	}
}

func TestScale(t *testing.T) {
	c, _ := NewConstant(4)
	s, err := NewScale(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w := box(0, 1, 0, 0, 2, 1)
	if s.Eval(0, 0, 0) != 2 || s.IntegralOver(w) != 4 || s.MaxOver(w) != 2 {
		t.Fatal("scale wrong")
	}
	if _, err := NewScale(c, -1); err == nil {
		t.Error("negative factor should error")
	}
	if _, err := NewScale(nil, 1); err == nil {
		t.Error("nil base should error")
	}
}

func TestNumericIntegralDefaultsN(t *testing.T) {
	c, _ := NewConstant(1)
	w := box(0, 1, 0, 0, 1, 1)
	if got := NumericIntegral(c, w, 0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("default-n integral = %g", got)
	}
}

func TestEvalIntoMatchesEval(t *testing.T) {
	// Linear with a floor-clamping region inside the sampled points, and a
	// constant: batched evaluation must be bit-identical to per-point Eval.
	lin := NewLinear(Theta{1, -0.5, 0.25, 0.1})
	con := Constant{Rate: 7.5}
	n := 257
	ts := make([]float64, n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = float64(i) * 0.05 // pushes 1-0.5t negative → clamp exercised
		xs[i] = float64(i%17) * 0.3
		ys[i] = float64(i%5) * 0.7
	}
	dst := make([]float64, n)
	for name, f := range map[string]BatchEvaluator{"linear": lin, "constant": con} {
		var ref Func
		switch name {
		case "linear":
			ref = lin
		default:
			ref = con
		}
		f.EvalInto(dst, ts, xs, ys)
		for i := 0; i < n; i++ {
			if want := ref.Eval(ts[i], xs[i], ys[i]); dst[i] != want {
				t.Fatalf("%s: EvalInto[%d] = %g, Eval = %g", name, i, dst[i], want)
			}
		}
	}
}
