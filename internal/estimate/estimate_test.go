package estimate

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stats"
)

func bigWindow() geom.Window {
	return geom.Window{T0: 0, T1: 4, Rect: geom.NewRect(0, 0, 8, 8)}
}

// sampleLinear draws one realization of the linear-intensity process.
func sampleLinear(t *testing.T, theta intensity.Theta, w geom.Window, seed int64) []mdpp.Event {
	t.Helper()
	p, err := mdpp.NewInhomogeneous(intensity.NewLinear(theta), w.Rect)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Sample(w, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewtonStep(t *testing.T) {
	// −H = a (symmetric positive definite), g = a·x: the step must be x and
	// the decrement gᵀx.
	h := [10]float64{4, 1, 0, 0, 3, 1, 0, 2, 1, 5}
	a := [4][4]float64{{4, 1, 0, 0}, {1, 3, 1, 0}, {0, 1, 2, 1}, {0, 0, 1, 5}}
	x := [4]float64{1, -2, 3, 0.5}
	var g [4]float64
	want := 0.0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			g[i] += a[i][j] * x[j]
		}
		want += g[i] * x[i]
	}
	got, dec, ok := newtonStep(&h, &g)
	if !ok {
		t.Fatal("positive definite system reported singular")
	}
	for i := 0; i < 4; i++ {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("δ[%d] = %g, want %g", i, got[i], x[i])
		}
	}
	if math.Abs(dec-want) > 1e-12*want {
		t.Fatalf("decrement = %g, want %g", dec, want)
	}
}

func TestNewtonStepSingular(t *testing.T) {
	g := [4]float64{1, 0, 0, 0}
	var zero [10]float64
	if _, _, ok := newtonStep(&zero, &g); ok {
		t.Error("zero matrix should be singular")
	}
	// Rank one: f fᵀ for one feature vector, what a batch at a single
	// position produces.
	f := [4]float64{1, 0.3, -0.2, 0.7}
	var h [10]float64
	k := 0
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			h[k] = 5 * f[i] * f[j]
			k++
		}
	}
	if _, _, ok := newtonStep(&h, &g); ok {
		t.Error("rank-one matrix should be singular")
	}
}

func TestFitMLERecoversHomogeneous(t *testing.T) {
	truth := intensity.Theta{8, 0, 0, 0}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 10)
	res, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("MLE did not converge")
	}
	if RelativeError(res.Theta, truth) > 0.1 {
		t.Fatalf("theta = %v, truth %v", res.Theta, truth)
	}
}

func TestFitMLERecoversSlopes(t *testing.T) {
	truth := intensity.Theta{10, 0.8, -0.5, 0.6}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 11)
	if len(ev) < 500 {
		t.Fatalf("sample too small (%d) for a meaningful fit", len(ev))
	}
	res, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	if RelativeError(res.Theta, truth) > 0.15 {
		t.Fatalf("theta = %v, truth %v (relerr %g)", res.Theta, truth, RelativeError(res.Theta, truth))
	}
}

func TestFitMLEImprovesLikelihoodOverInit(t *testing.T) {
	truth := intensity.Theta{6, 0.5, 0.7, -0.3}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 12)
	res, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	init := intensity.Theta{float64(len(ev)) / w.Volume(), 0, 0, 0}
	ll := LogLikelihood(res.Theta, ev, w)
	if ll < LogLikelihood(init, ev, w) {
		t.Fatal("MLE worse than homogeneous initialization")
	}
	// And at least as good as the truth evaluated on this sample (MLE is the
	// in-sample maximizer).
	if ll+1e-6 < LogLikelihood(truth, ev, w) {
		t.Fatalf("MLE loglik %g below truth loglik %g", ll, LogLikelihood(truth, ev, w))
	}
}

func TestFitMLEErrors(t *testing.T) {
	w := bigWindow()
	if _, err := FitMLE(nil, w); err == nil {
		t.Error("too few events should error")
	}
	if _, err := FitMLE(make([]mdpp.Event, 10), geom.Window{}); err == nil {
		t.Error("empty window should error")
	}
}

func TestFitMLEConsistency(t *testing.T) {
	// Error should shrink with more data (larger window ⇒ more events).
	truth := intensity.Theta{12, 0.4, -0.3, 0.2}
	small := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 3, 3)}
	large := geom.Window{T0: 0, T1: 6, Rect: geom.NewRect(0, 0, 10, 10)}
	var errSmall, errLarge float64
	trials := 5
	for i := 0; i < trials; i++ {
		evS := sampleLinear(t, truth, small, int64(100+i))
		evL := sampleLinear(t, truth, large, int64(200+i))
		rs, err := FitMLE(evS, small)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := FitMLE(evL, large)
		if err != nil {
			t.Fatal(err)
		}
		errSmall += RelativeError(rs.Theta, truth)
		errLarge += RelativeError(rl.Theta, truth)
	}
	if errLarge >= errSmall {
		t.Fatalf("no consistency: small-sample err %g <= large-sample err %g", errSmall, errLarge)
	}
}

func TestLogLikelihoodFiniteOnFloor(t *testing.T) {
	// A theta that is negative somewhere must still give a finite value
	// thanks to the positivity floor.
	w := bigWindow()
	ev := []mdpp.Event{{T: 0, X: 0, Y: 0}, {T: 1, X: 1, Y: 1}, {T: 2, X: 3, Y: 3}, {T: 3, X: 7, Y: 7}}
	ll := LogLikelihood(intensity.Theta{-5, 0, 0, 0}, ev, w)
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("loglik = %g", ll)
	}
}

func TestRelativeError(t *testing.T) {
	a := intensity.Theta{10, 1, 2, 3}
	if RelativeError(a, a) != 0 {
		t.Fatal("identical thetas must have zero error")
	}
	b := intensity.Theta{11, 1, 2, 3}
	if got := RelativeError(b, a); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("relerr = %g", got)
	}
	zero := intensity.Theta{}
	if got := RelativeError(intensity.Theta{1, 0, 0, 0}, zero); got != 1 {
		t.Fatalf("zero-scale relerr = %g", got)
	}
}

func TestSGDConvergesToNeighborhood(t *testing.T) {
	truth := intensity.Theta{10, 0, 0.5, -0.4}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 13)
	theta, err := FitSGD(ev, w, 16, 30)
	if err != nil {
		t.Fatal(err)
	}
	if RelativeError(theta, truth) > 0.35 {
		t.Fatalf("SGD theta = %v, truth %v (relerr %g)", theta, truth, RelativeError(theta, truth))
	}
}

func TestSGDObserveBatchSeedsFirst(t *testing.T) {
	s := NewSGD()
	if s.ready {
		t.Fatal("fresh SGD reported ready")
	}
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)}
	ev := []mdpp.Event{{T: 0.5, X: 1, Y: 1}, {T: 0.2, X: 0.5, Y: 0.5}}
	if err := s.ObserveBatch(ev, w); err != nil {
		t.Fatal(err)
	}
	if !s.ready {
		t.Fatal("SGD not ready after first batch")
	}
	// Seeded θ0 is the homogeneous rate 2 tuples / 4 volume = 0.5.
	if math.Abs(s.Theta()[0]-0.5) > 1e-12 {
		t.Fatalf("seed theta0 = %g", s.Theta()[0])
	}
	if s.step != 0 {
		t.Fatal("seeding must not count as a gradient step")
	}
	if err := s.ObserveBatch(ev, w); err != nil {
		t.Fatal(err)
	}
	if s.step != 1 {
		t.Fatalf("steps = %d", s.step)
	}
}

func TestSGDEmptyWindowErrors(t *testing.T) {
	s := NewSGD()
	if err := s.ObserveBatch(nil, geom.Window{}); err == nil {
		t.Fatal("empty window should error")
	}
}

func TestSGDKeepsFeasible(t *testing.T) {
	// Feed empty batches: the rate is pulled down — the first step, of size
	// eta0, all the way to zero — but must stay positive on the window
	// (projection).
	s := &SGD{theta: intensity.Theta{eta0, 0, 0, 0}, ready: true}
	w := geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 2, 2)}
	for i := 0; i < 50; i++ {
		if err := s.ObserveBatch(nil, w); err != nil {
			t.Fatal(err)
		}
		lin := intensity.NewLinear(s.Theta())
		for _, corner := range [][2]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}} {
			if lin.Eval(0.5, corner[0], corner[1]) <= 0 {
				t.Fatal("SGD left the feasible region")
			}
		}
	}
}

func TestFitSGDValidation(t *testing.T) {
	w := bigWindow()
	if _, err := FitSGD(nil, w, 0, 1); err == nil {
		t.Error("zero slices should error")
	}
	if _, err := FitSGD(nil, w, 4, 0); err == nil {
		t.Error("zero passes should error")
	}
	if _, err := FitSGD(nil, geom.Window{}, 4, 1); err == nil {
		t.Error("empty window should error")
	}
}

func TestMLEInvariantToEventOrder(t *testing.T) {
	truth := intensity.Theta{9, 0.3, 0.2, -0.1}
	w := bigWindow()
	ev := sampleLinear(t, truth, w, 14)
	res1, err := FitMLE(ev, w)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]mdpp.Event, len(ev))
	for i, e := range ev {
		rev[len(ev)-1-i] = e
	}
	res2, err := FitMLE(rev, w)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if math.Abs(res1.Theta[k]-res2.Theta[k]) > 1e-6 {
			t.Fatalf("order-dependent fit: %v vs %v", res1.Theta, res2.Theta)
		}
	}
}
