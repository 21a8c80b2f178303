package pmat

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
	"repro/internal/stream"
)

// movedTo returns b's tuples re-timed into the unit epoch window starting at
// t0 (b must have been sampled on a unit epoch).
func movedTo(b stream.Batch, t0 float64) stream.Batch {
	out := stream.Batch{Attr: b.Attr, Window: b.Window, Tuples: make([]stream.Tuple, len(b.Tuples))}
	out.Window.T0, out.Window.T1 = t0, t0+1
	for i, tp := range b.Tuples {
		tp.T = t0 + (tp.T - b.Window.T0)
		out.Tuples[i] = tp
	}
	return out
}

// warmTheta returns the warm-start θ f carries from its last fitted batch,
// in Eq. (1)'s absolute coordinates, and whether one exists.
func warmTheta(f *Flatten) (intensity.Theta, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.hasWarm {
		return intensity.Theta{}, false
	}
	return f.warm.Theta(f.warmWindow), true
}

// TestFlattenFitCostFlatInSessionAge steps one F-operator over a moving
// window — fresh tuples every epoch, as a session delivers them — from epoch
// 0 and from epoch 10⁶, and counts the passes its fits make over their
// batches. The count is the fit's cost; it must not depend on the epoch
// number, and a steady stream must fit in a handful of passes.
func TestFlattenFitCostFlatInSessionAge(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)}
	lam := intensity.NewLinear(intensity.Theta{5.5, 2.5, 0.4, -0.2})
	const epochs = 64
	batches := make([]stream.Batch, epochs)
	for i := range batches {
		// Times snapped to 2⁻²⁰ so that moving a batch 10⁶ epochs on is exact
		// and the two runs see the same offsets within their windows.
		batches[i] = inhomogeneousBatch(t, lam, w, int64(100+i))
		for j := range batches[i].Tuples {
			batches[i].Tuples[j].T = math.Round(batches[i].Tuples[j].T*(1<<20)) / (1 << 20)
		}
	}
	run := func(start float64) (passes, kept int) {
		f, err := NewFlatten("f", FlattenConfig{TargetRate: 2}, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		var sink stream.Counter
		f.AddDownstream(&sink)
		for i, b := range batches {
			if err := f.Process(movedTo(b, start+float64(i))); err != nil {
				t.Fatal(err)
			}
			if rep := f.LastReport(); rep.FitNotConverged || rep.N < 8 {
				t.Fatalf("start %g: epoch %d: no converged fit (%+v)", start, i, rep)
			}
		}
		return f.fitPasses, int(sink.N())
	}
	p0, kept0 := run(0)
	p1, kept1 := run(1e6)
	if p0 != p1 {
		t.Errorf("passes over %d batches: %d from epoch 0, %d from epoch 10⁶", epochs, p0, p1)
	}
	if kept0 != kept1 {
		t.Errorf("survivors: %d from epoch 0, %d from epoch 10⁶ (same seed, same offsets)", kept0, kept1)
	}
	if perFit := float64(p0) / epochs; perFit > 6 {
		t.Errorf("%.2f passes per fit on a steady stream, want at most 6", perFit)
	}
}

// TestFlattenDropsWarmStateOnFailedFit: after a batch whose fit errors or
// does not converge, the next batch must not start from the optimum of the
// batch before — it belongs to neither.
func TestFlattenDropsWarmStateOnFailedFit(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)}
	good := inhomogeneousBatch(t, intensity.NewLinear(intensity.Theta{6, 2, 0.5, -0.5}), w, 7)
	f, err := NewFlatten("f", FlattenConfig{TargetRate: 2}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	f.AddDownstream(&stream.Counter{})
	process := func(b stream.Batch) ViolationReport {
		t.Helper()
		if err := f.Process(b); err != nil {
			t.Fatal(err)
		}
		return f.LastReport()
	}
	if rep := process(good); rep.FitNotConverged || rep.FitIterations == 0 {
		t.Fatalf("good batch: %+v", rep)
	}
	if _, ok := warmTheta(f); !ok {
		t.Fatal("no warm state after a converged fit")
	}
	// A window whose volume underflows: no fit can be expressed on it, and
	// the fit returns an error.
	tiny := geom.Window{T0: 0, T1: 1e-320, Rect: geom.NewRect(0, 0, 1e-10, 1e-10)}
	unfit := stream.Batch{Attr: "rain", Window: tiny, Tuples: good.Tuples}
	if rep := process(unfit); !rep.FitNotConverged {
		t.Fatalf("failed fit not reported: %+v", rep)
	}
	if th, ok := warmTheta(f); ok {
		t.Fatalf("warm state %v survived a failed fit", th)
	}
	process(good)
	if _, ok := warmTheta(f); !ok {
		t.Fatal("no warm state after recovering")
	}
	// Every tuple at one position: no θ to find.
	point := stream.Batch{Attr: "rain", Window: w}
	for i := 0; i < 20; i++ {
		point.Tuples = append(point.Tuples, stream.Tuple{ID: uint64(i), Attr: "rain", T: 0.5, X: 1, Y: 3})
	}
	if rep := process(point); !rep.FitNotConverged {
		t.Fatalf("degenerate fit not reported: %+v", rep)
	}
	if th, ok := warmTheta(f); ok {
		t.Fatalf("warm state %v survived a degenerate batch", th)
	}
}

// TestFlattenDegenerateBatches: batches that do not determine a rate model
// are flattened on the homogeneous estimate — every tuple equally likely to
// survive, the expected count still λ̄·vol — without a NaN or a panic, and a
// warm start that is infeasible on the next batch is ignored, not followed.
func TestFlattenDegenerateBatches(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)}
	at := func(n int, pos func(i int) (t, x, y float64)) stream.Batch {
		b := stream.Batch{Attr: "rain", Window: w}
		for i := 0; i < n; i++ {
			tt, x, y := pos(i)
			b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), Attr: "rain", T: tt, X: x, Y: y})
		}
		return b
	}
	cases := map[string]stream.Batch{
		"one point": at(400, func(int) (float64, float64, float64) { return 0.5, 2, 2 }),
		"collinear": at(400, func(i int) (float64, float64, float64) {
			s := float64(i) / 400
			return s, 4 * s, 4 * s
		}),
		"three positions": at(400, func(i int) (float64, float64, float64) {
			k := float64(i % 3)
			return 0.25 + k/4, 1 + k, 3 - k/2
		}),
		"NaN coordinate": at(400, func(i int) (float64, float64, float64) {
			if i == 17 {
				return 0.5, math.NaN(), 1
			}
			s := float64(i) / 400
			return s, 4 * math.Mod(7*s, 1), 4 * math.Mod(13*s, 1)
		}),
	}
	for name, b := range cases {
		f, err := NewFlatten("f", FlattenConfig{TargetRate: 5}, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		var sink stream.Counter
		f.AddDownstream(&sink)
		if err := f.Process(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := f.LastReport()
		if !rep.FitNotConverged || rep.Violations != 0 {
			t.Errorf("%s: %+v, want a non-converged fit and no violations", name, rep)
		}
		if math.IsNaN(rep.OutputRate) || math.IsInf(rep.OutputRate, 0) {
			t.Errorf("%s: output rate %g", name, rep.OutputRate)
		}
		// 400 tuples each kept with p = 5·16/400 = 0.2: 80 ± 5σ (σ = 8).
		if got := int(sink.N()); got < 40 || got > 120 {
			t.Errorf("%s: %d survivors, want about 80", name, got)
		}
		if _, ok := warmTheta(f); ok {
			t.Errorf("%s: left a warm start behind", name)
		}
	}

	// A steep optimum carried onto a batch with tuples where it is negative.
	f, err := NewFlatten("f", FlattenConfig{TargetRate: 2}, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	f.AddDownstream(&stream.Counter{})
	rising := inhomogeneousBatch(t, intensity.NewLinear(intensity.Theta{0.5, 40, 0, 0}), w, 21)
	falling := inhomogeneousBatch(t, intensity.NewLinear(intensity.Theta{40.5, -40, 0, 0}), w, 22)
	for _, b := range []stream.Batch{rising, falling, rising} {
		if err := f.Process(b); err != nil {
			t.Fatal(err)
		}
		if rep := f.LastReport(); rep.FitNotConverged {
			t.Fatalf("fit across a reversed slope did not converge: %+v", rep)
		}
	}
	if th, ok := warmTheta(f); !ok || th[1] < 20 {
		t.Fatalf("warm θ = %v, %v after refitting the rising batch", th, ok)
	}
}
