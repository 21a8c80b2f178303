package pmat

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
	"repro/internal/stream"
)

// batchedOracle is a custom intensity implementing BatchEvaluator, covering
// EvalInto's pooled-scratch dispatch path.
type batchedOracle struct{ intensity.Hotspot }

func (o batchedOracle) EvalInto(dst, ts, xs, ys []float64) {
	for i := range dst {
		dst[i] = o.Eval(ts[i], xs[i], ys[i])
	}
}

// plainOracle deliberately does not implement BatchEvaluator, covering the
// per-tuple fallback.
type plainOracle struct{ intensity.Hotspot }

func (plainOracle) unused() {}

func evalTuples(n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = stream.Tuple{
			T: float64(i) * 0.04,
			X: float64(i%13) * 0.31,
			Y: float64(i%7) * 0.53,
		}
	}
	return out
}

func TestEvalIntoAllPaths(t *testing.T) {
	hot, err := intensity.NewHotspot(2, 30, 1.5, 1.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	tuples := evalTuples(300)
	cases := map[string]intensity.Func{
		"linear":   intensity.NewLinear(intensity.Theta{1, -0.2, 0.1, 0.05}), // clamp exercised
		"constant": intensity.Constant{Rate: 4.5},
		"batched":  batchedOracle{hot},
		"fallback": plainOracle{hot},
	}
	dst := make([]float64, len(tuples))
	for name, lam := range cases {
		EvalInto(lam, tuples, dst)
		for i, tp := range tuples {
			if want := lam.Eval(tp.T, tp.X, tp.Y); dst[i] != want {
				t.Fatalf("%s: EvalInto[%d] = %g, Eval = %g", name, i, dst[i], want)
			}
		}
	}
}

// retainedReports returns the violation reports f's ring retains, oldest
// first.
func retainedReports(f *Flatten) []ViolationReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(slices.Clone(f.reports[f.reportHead:]), f.reports[:f.reportHead]...)
}

func TestFlattenReportsRing(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)}
	lam, _ := intensity.NewConstant(5)
	f, err := NewFlatten("f", FlattenConfig{TargetRate: 2, Mode: EstimatorKnown, Known: lam}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	total := maxReports + 37
	for i := 0; i < total; i++ {
		b := stream.Batch{Attr: "temp", Window: w, Tuples: []stream.Tuple{{ID: uint64(i), T: 0.5, X: 1, Y: 1}}}
		flattenSurvivors(t, f, b)
	}
	reps := retainedReports(f)
	if len(reps) != maxReports {
		t.Fatalf("retained %d reports, want %d", len(reps), maxReports)
	}
	// Chronological order, ending at the newest batch.
	for i, r := range reps {
		if want := total - maxReports + i + 1; r.Batch != want {
			t.Fatalf("reports[%d].Batch = %d, want %d", i, r.Batch, want)
		}
	}
	if f.LastReport().Batch != total {
		t.Fatalf("LastReport.Batch = %d, want %d", f.LastReport().Batch, total)
	}
	if math.IsNaN(f.LastReport().Percent) {
		t.Fatal("NaN violation percent")
	}
}
