package estimate

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stream"
)

// eventPoints is ev as the solver's columns in fr's coordinates, on storage
// of its own.
func eventPoints(fr *frame, ev []mdpp.Event) points {
	n := len(ev)
	p := points{rows: make([][4]float64, n), rates: make([]float64, n)}
	p.setEvents(fr, ev)
	return p
}

// centredOf expresses θ in w's centred coordinates, the inverse of
// Centred.Theta.
func centredOf(theta intensity.Theta, w geom.Window) Centred {
	mid, half := centre(w)
	c := Centred{theta[0]}
	for k := range mid {
		c[0] += theta[k+1] * mid[k]
		c[k+1] = theta[k+1] * half[k]
	}
	return c
}

// coldFit runs the solver from the homogeneous start, as FitMLE does.
func coldFit(t *testing.T, ev []mdpp.Event, w geom.Window) fit {
	t.Helper()
	fr, err := newFrame(w)
	if err != nil {
		t.Fatal(err)
	}
	return eventPoints(&fr, ev).solve(fr.vol, nil, maxIter, nil)
}

// fitFrom is FitMLE started from theta (nil: the homogeneous rate) and cut
// off after iters Newton iterations: the F-operator's warm start and the
// solver's iteration bound, which FitMLE fixes.
func fitFrom(t *testing.T, ev []mdpp.Event, w geom.Window, theta *intensity.Theta, iters int) Result {
	t.Helper()
	fr, err := newFrame(w)
	if err != nil {
		t.Fatal(err)
	}
	var start *Centred
	if theta != nil {
		c := centredOf(*theta, w)
		start = &c
	}
	f := eventPoints(&fr, ev).solve(fr.vol, start, iters, nil)
	return Result{Theta: f.c.Theta(w), Iterations: f.iterations, Converged: f.converged}
}

// centredLogLik is ℓ in w's centred coordinates, Σ log λ_i − c0·vol — the
// same quantity as LogLikelihood at c.Theta(w), without the cancellation an
// absolute θ suffers far from the origin.
func centredLogLik(c Centred, ev []mdpp.Event, w geom.Window) float64 {
	fr, _ := newFrame(w)
	ll := -c[0] * fr.vol
	for _, e := range ev {
		lam := c[0] + c[1]*(e.T-fr.ct)*fr.st + c[2]*(e.X-fr.cx)*fr.sx + c[3]*(e.Y-fr.cy)*fr.sy
		ll += math.Log(math.Max(lam, intensity.DefaultFloor))
	}
	return ll
}

// centredDiff is max_k |a_k − b_k| relative to the mean rate |b_0|.
func centredDiff(a, b Centred) float64 {
	worst := 0.0
	for k := range a {
		worst = math.Max(worst, math.Abs(a[k]-b[k]))
	}
	return worst / math.Abs(b[0])
}

func tuplesOf(ev []mdpp.Event) []stream.Tuple {
	tuples := make([]stream.Tuple, len(ev))
	for i, e := range ev {
		tuples[i] = stream.Tuple{ID: uint64(i), Attr: "a", T: e.T, X: e.X, Y: e.Y}
	}
	return tuples
}

// TestPassMatchesOracleGradHess maps one pass's centred sums to absolute
// coordinates (θ ↦ c is linear, c = J·θ, so ∇θ = Jᵀ∇c and Hθ = Jᵀ·Hc·J) and
// compares them with the oracle's gradient and Hessian at the same point.
func TestPassMatchesOracleGradHess(t *testing.T) {
	theta := intensity.Theta{5, 0.1, -0.2, 0.3}
	w := geom.Window{T0: 1, T1: 3, Rect: geom.NewRect(2, -1, 6, 3)}
	ev := sampleLinear(t, theta, w, 21)
	fr, err := newFrame(w)
	if err != nil {
		t.Fatal(err)
	}
	s := eventPoints(&fr, ev).pass(centredOf(theta, w), 1e-9, nil)
	if s.low {
		t.Fatal("a positive rate flagged as below the floor")
	}
	j := [4][4]float64{
		{1, fr.ct, fr.cx, fr.cy},
		{0, 1 / fr.st, 0, 0},
		{0, 0, 1 / fr.sx, 0},
		{0, 0, 0, 1 / fr.sy},
	}
	gc := [4]float64{s.g[0] - fr.vol, s.g[1], s.g[2], s.g[3]}
	hc := [4][4]float64{
		{s.h[0], s.h[1], s.h[2], s.h[3]},
		{s.h[1], s.h[4], s.h[5], s.h[6]},
		{s.h[2], s.h[5], s.h[7], s.h[8]},
		{s.h[3], s.h[6], s.h[8], s.h[9]},
	}
	wantG, wantH := gradHess(theta, ev, intensity.FeatureIntegrals(w), 1e-9)
	for a := 0; a < 4; a++ {
		g := 0.0
		for k := 0; k < 4; k++ {
			g += j[k][a] * gc[k]
		}
		if math.Abs(g-wantG[a]) > 1e-9*(1+math.Abs(wantG[a])) {
			t.Errorf("grad[%d] = %g, oracle %g", a, g, wantG[a])
		}
		for b := 0; b < 4; b++ {
			h := 0.0
			for k := 0; k < 4; k++ {
				for l := 0; l < 4; l++ {
					h -= j[k][a] * hc[k][l] * j[l][b]
				}
			}
			if math.Abs(h-wantH[a][b]) > 1e-9*(1+math.Abs(wantH[a][b])) {
				t.Errorf("hess[%d][%d] = %g, oracle %g", a, b, h, wantH[a][b])
			}
		}
	}
}

func TestCentredRoundTrip(t *testing.T) {
	w := geom.Window{T0: 10, T1: 14, Rect: geom.NewRect(-3, 2, 5, 4)}
	theta := intensity.Theta{7, 0.5, -0.25, 1.5}
	c := centredOf(theta, w)
	// c0 is the rate at the window's centre, c1..c3 half the swing across it.
	if want := intensity.NewLinear(theta).Eval(12, 1, 3); math.Abs(c[0]-want) > 1e-12 {
		t.Fatalf("c0 = %g, want the centre rate %g", c[0], want)
	}
	if c[1] != 1 || c[2] != -1 || c[3] != 1.5 {
		t.Fatalf("swings = %v", c)
	}
	back := c.Theta(w)
	for k := range theta {
		if math.Abs(back[k]-theta[k]) > 1e-12 {
			t.Fatalf("round trip %v -> %v -> %v", theta, c, back)
		}
	}
}

// TestFitMLEWarmstart pins the warm-start contract: a restart from the
// optimum is recognised in the one pass it takes to evaluate it, a feasible
// warm start anywhere reaches the same optimum, and an infeasible one costs
// exactly one pass before the cold solve runs.
func TestFitMLEWarmstart(t *testing.T) {
	truth := intensity.Theta{10, 0.4, -0.3, 0.2}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 31)
	cold, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged {
		t.Fatal("cold fit did not converge")
	}
	warm := fitFrom(t, ev, w, &cold.Theta, maxIter)
	if !warm.Converged || warm.Iterations != 0 {
		t.Fatalf("warm restart: converged=%v iterations=%d, want immediate convergence", warm.Converged, warm.Iterations)
	}
	if d := centredDiff(centredOf(warm.Theta, w), centredOf(cold.Theta, w)); d > 1e-12 {
		t.Fatalf("warm restart moved θ by %g: %v vs %v", d, warm.Theta, cold.Theta)
	}
	fr, _ := newFrame(w)
	base := coldFit(t, ev, w)
	again := eventPoints(&fr, ev).solve(fr.vol, &base.c, maxIter, nil)
	if again.passes != 1 || again.iterations != 0 || !again.converged || again.c != base.c {
		t.Fatalf("restart from the optimum: %+v, want the same point in one pass", again)
	}

	far := intensity.Theta{40, 0, 0, 0}
	fromFar := fitFrom(t, ev, w, &far, maxIter)
	if d := centredDiff(centredOf(fromFar.Theta, w), base.c); !fromFar.Converged || d > 1e-6 {
		t.Fatalf("feasible warm start: converged=%v, %g from the cold optimum", fromFar.Converged, d)
	}

	// Negative over part of the window where events lie: infeasible.
	stale := centredOf(intensity.Theta{3, -2, 1, 5}, w)
	fromStale := eventPoints(&fr, ev).solve(fr.vol, &stale, maxIter, nil)
	if fromStale.c != base.c || fromStale.iterations != base.iterations || fromStale.passes != base.passes+1 {
		t.Fatalf("infeasible warm start: %+v, want the cold fit %+v plus one pass", fromStale, base)
	}
}

// gridEvents snaps a seeded sample onto a 2⁻¹⁶ grid, so that shifting it by
// an integer far below 2³⁶ is exact in float64.
func gridEvents(t *testing.T, theta intensity.Theta, w geom.Window, seed int64) []mdpp.Event {
	ev := sampleLinear(t, theta, w, seed)
	const grid = 1 << 16
	for i := range ev {
		ev[i].T = math.Round(ev[i].T*grid) / grid
		ev[i].X = math.Round(ev[i].X*grid) / grid
		ev[i].Y = math.Round(ev[i].Y*grid) / grid
	}
	return ev
}

func shifted(ev []mdpp.Event, w geom.Window, dt, dxy float64) ([]mdpp.Event, geom.Window) {
	out := make([]mdpp.Event, len(ev))
	for i, e := range ev {
		out[i] = mdpp.Event{T: e.T + dt, X: e.X + dxy, Y: e.Y + dxy}
	}
	return out, geom.Window{T0: w.T0 + dt, T1: w.T1 + dt,
		Rect: geom.NewRect(w.Rect.MinX+dxy, w.Rect.MinY+dxy, w.Rect.MaxX+dxy, w.Rect.MaxY+dxy)}
}

// TestFitMLETranslationInvariant: where a batch sits — how old the session
// is, where the cell lies — must not change the fit or what it costs.
func TestFitMLETranslationInvariant(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)}
	ev := gridEvents(t, intensity.Theta{8, 6, -1, 0.5}, w, 41)
	base := coldFit(t, ev, w)
	if !base.converged {
		t.Fatal("base fit did not converge")
	}
	for _, dt := range []float64{0, 1e3, 1e6, 1e9} {
		for _, dxy := range []float64{0, 1e6} {
			sev, sw := shifted(ev, w, dt, dxy)
			got := coldFit(t, sev, sw)
			if !got.converged || got.iterations != base.iterations || got.passes != base.passes {
				t.Errorf("shift t+%g xy+%g: converged=%v in %d iterations, %d passes; unshifted %d, %d",
					dt, dxy, got.converged, got.iterations, got.passes, base.iterations, base.passes)
			}
			if d := centredDiff(got.c, base.c); d > 1e-9 {
				t.Errorf("shift t+%g xy+%g: centred θ %v, unshifted %v (%g apart)", dt, dxy, got.c, base.c, d)
			}
			res, err := FitMLE(sev, sw)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.Iterations != base.iterations {
				t.Errorf("shift t+%g xy+%g: FitMLE converged=%v in %d iterations, want %d",
					dt, dxy, res.Converged, res.Iterations, base.iterations)
			}
			// The slopes of the absolute θ are translation invariant too.
			want := base.c.Theta(w)
			for k := 1; k < 4; k++ {
				if math.Abs(res.Theta[k]-want[k]) > 1e-9*math.Abs(want[0]) {
					t.Errorf("shift t+%g xy+%g: θ%d = %g, want %g", dt, dxy, k, res.Theta[k], want[k])
				}
			}
		}
	}
}

// TestFitMLEDegenerate: batches that do not determine θ, and inputs no fit
// can use, come back as the homogeneous rate, flagged, finite.
func TestFitMLEDegenerate(t *testing.T) {
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 4, 4)}
	repeat := func(n int, at ...mdpp.Event) []mdpp.Event {
		out := make([]mdpp.Event, n)
		for i := range out {
			out[i] = at[i%len(at)]
		}
		return out
	}
	line := make([]mdpp.Event, 40)
	for i := range line {
		s := float64(i) / 40
		line[i] = mdpp.Event{T: 2 * s, X: 4 * s, Y: 1 + 2*s}
	}
	plane := sampleLinear(t, intensity.Theta{6, 0, 0, 0}, w, 51)
	for i := range plane {
		plane[i].Y = 3
	}
	nan := sampleLinear(t, intensity.Theta{6, 0, 0, 0}, w, 52)
	nan[3].X = math.NaN()
	inf := sampleLinear(t, intensity.Theta{6, 0, 0, 0}, w, 53)
	inf[0].T = math.Inf(1)
	cases := map[string][]mdpp.Event{
		"one point":       repeat(16, mdpp.Event{T: 1, X: 1, Y: 3}),
		"three positions": repeat(12, mdpp.Event{T: 0.5, X: 1, Y: 1}, mdpp.Event{T: 1, X: 3, Y: 2}, mdpp.Event{T: 1.5, X: 2, Y: 3.5}),
		"collinear":       line,
		"coplanar":        plane,
		"NaN coordinate":  nan,
		"Inf coordinate":  inf,
	}
	warm := intensity.Theta{3, 1, 0.5, -0.5}
	for name, ev := range cases {
		want := intensity.Theta{float64(len(ev)) / w.Volume(), 0, 0, 0}
		cold, err := FitMLE(ev, w)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for i, res := range []Result{cold, fitFrom(t, ev, w, &warm, maxIter)} {
			if res.Converged || res.Theta != want || res.Iterations != 0 {
				t.Errorf("%s (warm=%v): %+v, want the homogeneous rate %v, not converged", name, i == 1, res, want)
			}
		}
		inv := make([]float64, len(ev))
		bf, err := FitBatch(tuplesOf(ev), w, nil, inv)
		if err != nil {
			t.Errorf("%s: FitBatch: %v", name, err)
			continue
		}
		if bf.Converged || bf.Centred != (Centred{want[0], 0, 0, 0}) {
			t.Errorf("%s: FitBatch %+v, want the homogeneous rate, not converged", name, bf)
		}
		for i, r := range inv {
			if r != 1/want[0] {
				t.Errorf("%s: inv[%d] = %g, want %g", name, i, r, 1/want[0])
				break
			}
		}
		if math.Abs(bf.LambdaC-float64(len(ev))/want[0]) > 1e-9 {
			t.Errorf("%s: λc = %g", name, bf.LambdaC)
		}
	}

	// Windows no fit can be expressed on are errors, not panics or NaNs.
	ev := repeat(8, mdpp.Event{T: 1, X: 1, Y: 1})
	for _, bad := range []geom.Window{
		{},
		{T0: math.NaN(), T1: 1, Rect: geom.NewRect(0, 0, 1, 1)},
		{T0: 0, T1: math.Inf(1), Rect: geom.NewRect(0, 0, 1, 1)},
		{T0: 0, T1: 1e-320, Rect: geom.NewRect(0, 0, 1e-10, 1e-10)},
		{T0: -math.MaxFloat64, T1: math.MaxFloat64, Rect: geom.NewRect(0, 0, 1, 1)},
	} {
		if _, err := FitMLE(ev, bad); err == nil {
			t.Errorf("window %v accepted", bad)
		}
		if _, err := FitBatch(tuplesOf(ev), bad, nil, make([]float64, len(ev))); err == nil {
			t.Errorf("FitBatch: window %v accepted", bad)
		}
	}
}

// TestFitWarmStoppedShortIsHomogeneous: a fit that runs out of iterations is
// returned as it stands only when it started from the homogeneous rate, whose
// likelihood ascent then keeps; from a warm start — here one far below the
// homogeneous rate's likelihood — it comes back as the homogeneous rate.
func TestFitWarmStoppedShortIsHomogeneous(t *testing.T) {
	w := geom.Window{T0: 0, T1: 2, Rect: geom.NewRect(0, 0, 4, 4)}
	ev := sampleLinear(t, intensity.Theta{2, 1, 3, 0.5}, w, 71)
	hom := intensity.Theta{float64(len(ev)) / w.Volume(), 0, 0, 0}
	far := Centred{40 * hom[0], 0, 0, 0}.Theta(w)
	if LogLikelihood(far, ev, w) >= LogLikelihood(hom, ev, w) {
		t.Fatal("the warm start is no worse than the homogeneous rate: the case tests nothing")
	}
	cold := fitFrom(t, ev, w, nil, 1)
	if cold.Converged || cold.Iterations != 1 || cold.Theta == hom {
		t.Errorf("cold, one iteration: %+v, want the first iterate", cold)
	}
	warm := fitFrom(t, ev, w, &far, 1)
	if warm.Converged || warm.Theta != hom {
		t.Errorf("warm, one iteration: %+v, want the homogeneous rate %v, not converged", warm, hom)
	}
	full := fitFrom(t, ev, w, &far, maxIter)
	if !full.Converged {
		t.Errorf("warm, default iterations: %+v, want converged", full)
	}
}

// TestFitBatchMatchesFitMLE: the tuple entry point is the same solver, and
// what it leaves in inv is the reciprocal rate of the fit it returns.
func TestFitBatchMatchesFitMLE(t *testing.T) {
	w := geom.Window{T0: 5, T1: 6, Rect: geom.NewRect(2, 2, 6, 6)}
	ev := sampleLinear(t, intensity.Theta{4, 2, 0.5, -0.5}, w, 61)
	res, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	inv := make([]float64, len(ev))
	bf, err := FitBatch(tuplesOf(ev), w, nil, inv)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Result != res {
		t.Fatalf("FitBatch %+v, FitMLE %+v", bf.Result, res)
	}
	if bf.Passes != bf.Iterations+1 {
		t.Fatalf("%d passes for %d iterations: every probe should have been accepted", bf.Passes, bf.Iterations)
	}
	fr, _ := newFrame(w)
	lambdaC := 0.0
	for i, e := range ev {
		lam := bf.Centred[0] + bf.Centred[1]*(e.T-fr.ct)*fr.st + bf.Centred[2]*(e.X-fr.cx)*fr.sx + bf.Centred[3]*(e.Y-fr.cy)*fr.sy
		if inv[i] != 1/lam {
			t.Fatalf("inv[%d] = %g, want 1/%g", i, inv[i], lam)
		}
		lambdaC += inv[i]
	}
	if bf.LambdaC != lambdaC {
		t.Fatalf("λc = %g, Σ inv = %g", bf.LambdaC, lambdaC)
	}
	// Warm from the optimum on the next window of the same shape: one pass.
	sev, sw := shifted(ev, w, 1, 0)
	next, err := FitBatch(tuplesOf(sev), sw, &bf.Centred, inv)
	if err != nil {
		t.Fatal(err)
	}
	if next.Passes != 1 || !next.Converged || next.Centred != bf.Centred {
		t.Fatalf("warm restart on the shifted window: %+v", next)
	}
}

// TestFitBatchColumnsMatchEvents: the tuple entry point and the event entry
// point fill the solver's columns with the same values, so they are the same
// fit — θ, iterations, passes, λc and every reciprocal rate bit for bit, cold
// and warm. The columns are normalised from either source with the same
// expressions, and every pass sums them in index order.
func TestFitBatchColumnsMatchEvents(t *testing.T) {
	w := geom.Window{T0: 5, T1: 6, Rect: geom.NewRect(2, 2, 6, 6)}
	ev := sampleLinear(t, intensity.Theta{4, 2, 0.5, -0.5}, w, 61)
	n := len(ev)
	rows := tuplesOf(ev)
	fr, err := newFrame(w)
	if err != nil {
		t.Fatal(err)
	}
	var warm *Centred
	for _, name := range []string{"cold", "warm"} {
		invRows, invEv := make([]float64, n), make([]float64, n)
		viaRows, err := FitBatch(rows, w, warm, invRows)
		if err != nil {
			t.Fatal(err)
		}
		viaEv := eventPoints(&fr, ev).solve(fr.vol, warm, maxIter, invEv)
		if viaEv.c != viaRows.Centred || viaEv.lambdaC != viaRows.LambdaC || viaEv.iterations != viaRows.Iterations ||
			viaEv.passes != viaRows.Passes || viaEv.converged != viaRows.Converged {
			t.Fatalf("%s: as events %+v, as tuples %+v", name, viaEv, viaRows)
		}
		for i := range invRows {
			if invRows[i] != invEv[i] {
				t.Fatalf("%s: inv[%d] = %x as tuples, %x as events", name, i,
					math.Float64bits(invRows[i]), math.Float64bits(invEv[i]))
			}
		}
		if name == "cold" {
			res, err := FitMLE(ev, w)
			if err != nil || res != viaRows.Result {
				t.Fatalf("FitMLE %+v (%v), FitBatch %+v", res, err, viaRows.Result)
			}
			if !viaRows.Converged || viaRows.Iterations == 0 {
				t.Fatalf("cold fit %+v: want a converged fit that iterated", viaRows)
			}
			// Warm from a perturbed optimum, so the warm fit iterates too.
			start := viaRows.Centred
			start[1] *= 0.5
			warm = &start
		} else if !viaRows.Converged || viaRows.Iterations == 0 || viaRows.Passes < 2 {
			t.Fatalf("warm fit %+v: want a converged fit that iterated", viaRows)
		}
	}
	if _, err := FitBatch(rows[:3], w, nil, make([]float64, 3)); err == nil {
		t.Fatal("FitBatch accepted three tuples")
	}
}
