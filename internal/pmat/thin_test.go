package pmat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mdpp"
	"repro/internal/stats"
	"repro/internal/stream"
)

func region4() geom.Rect { return geom.NewRect(0, 0, 4, 4) }

// homogeneousBatch samples a homogeneous MDPP into a batch.
func homogeneousBatch(t testing.TB, rate float64, w geom.Window, seed int64) stream.Batch {
	t.Helper()
	p, err := mdpp.NewHomogeneous(rate, w.Rect)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Sample(w, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := stream.Batch{Attr: "temp", Window: w}
	for i, e := range ev {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i), Attr: "temp", T: e.T, X: e.X, Y: e.Y})
	}
	return b
}

func TestNewThinValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	cases := []struct{ l1, l2 float64 }{
		{0, 1}, {1, 0}, {-1, -2}, {5, 5}, {5, 6},
	}
	for _, c := range cases {
		if _, err := NewThin("t", c.l1, c.l2, rng); err == nil {
			t.Errorf("NewThin(%g, %g) should error", c.l1, c.l2)
		}
	}
	if _, err := NewThin("t", 2, 1, nil); err == nil {
		t.Error("nil RNG should error")
	}
	th, err := NewThin("t", 10, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if th.InputRate() != 10 || th.OutputRate() != 4 {
		t.Fatal("rates wrong")
	}
	if math.Abs(th.Probability()-0.4) > 1e-12 {
		t.Fatalf("p = %g", th.Probability())
	}
	if th.Kind() != "T" {
		t.Fatalf("kind = %s", th.Kind())
	}
}

func TestThinExpectedRate(t *testing.T) {
	// The paper's claim: thinning yields a point process with rate λ2
	// (experiment E2 sweeps this; here we verify two representative points).
	w := geom.Window{T0: 0, T1: 2, Rect: region4()}
	for _, ratio := range []float64{0.25, 0.75} {
		lambda1 := 200.0
		lambda2 := ratio * lambda1
		th, err := NewThin("t", lambda1, lambda2, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		var s stats.Summary
		for trial := 0; trial < 30; trial++ {
			b := homogeneousBatch(t, lambda1, w, int64(100+trial))
			s.Add(float64(len(thinSurvivors(th, b.Tuples))) / w.Volume())
		}
		if math.Abs(s.Mean()-lambda2) > 4*s.StdErr()+0.5 {
			t.Errorf("ratio %g: measured rate %g, want ≈%g", ratio, s.Mean(), lambda2)
		}
	}
}

func TestThinOutputStaysUniform(t *testing.T) {
	// Thinning a homogeneous process must leave it homogeneous.
	w := geom.Window{T0: 0, T1: 4, Rect: region4()}
	th, _ := NewThin("t", 300, 100, stats.NewRNG(8))
	kept := thinSurvivors(th, homogeneousBatch(t, 300, w, 9).Tuples)
	grid, err := stats.NewGrid2D(0, 4, 0, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range kept {
		grid.Add(tp.X, tp.Y)
	}
	p, err := grid.UniformityPValue()
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("thinned output not uniform: p = %g", p)
	}
}

func TestThinSubset(t *testing.T) {
	// Output tuples must be a subset of input tuples (thinning never
	// fabricates data).
	w := geom.Window{T0: 0, T1: 1, Rect: region4()}
	b := homogeneousBatch(t, 100, w, 10)
	ids := make(map[uint64]bool, len(b.Tuples))
	for _, tp := range b.Tuples {
		ids[tp.ID] = true
	}
	th, _ := NewThin("t", 100, 30, stats.NewRNG(11))
	kept := thinSurvivors(th, b.Tuples)
	for _, tp := range kept {
		if !ids[tp.ID] {
			t.Fatal("thin kept a tuple that was not in the input")
		}
	}
	if len(kept) >= b.Len() {
		t.Fatalf("thin kept %d of %d tuples; expected a strict reduction at p=0.3", len(kept), b.Len())
	}
}

func TestThinSetRates(t *testing.T) {
	th, _ := NewThin("t", 10, 5, stats.NewRNG(12))
	if err := th.SetRates(20, 7); err != nil {
		t.Fatal(err)
	}
	if th.InputRate() != 20 || th.OutputRate() != 7 {
		t.Fatal("SetRates ignored")
	}
	if err := th.SetRates(5, 7); err == nil {
		t.Fatal("SetRates with λ2 > λ1 should error")
	}
}

func TestThinComposition(t *testing.T) {
	// T(λ1→λ2) ∘ T(λ2→λ3) must equal T(λ1→λ3) in expectation — the property
	// behind the topology layer's T-merge rule.
	w := geom.Window{T0: 0, T1: 2, Rect: region4()}
	lambda1, lambda2, lambda3 := 300.0, 150.0, 50.0
	var chained, direct stats.Summary
	for trial := 0; trial < 25; trial++ {
		b := homogeneousBatch(t, lambda1, w, int64(300+trial))

		t1, _ := NewThin("t1", lambda1, lambda2, stats.NewRNG(int64(400+trial)))
		t2, _ := NewThin("t2", lambda2, lambda3, stats.NewRNG(int64(500+trial)))
		chained.Add(float64(len(thinSurvivors(t2, thinSurvivors(t1, b.Tuples)))) / w.Volume())

		td, _ := NewThin("td", lambda1, lambda3, stats.NewRNG(int64(600+trial)))
		direct.Add(float64(len(thinSurvivors(td, b.Tuples))) / w.Volume())
	}
	if math.Abs(chained.Mean()-lambda3) > 4*chained.StdErr()+1 {
		t.Errorf("chained rate %g, want ≈%g", chained.Mean(), lambda3)
	}
	if math.Abs(chained.Mean()-direct.Mean()) > 4*(chained.StdErr()+direct.StdErr())+1 {
		t.Errorf("chained %g vs direct %g disagree", chained.Mean(), direct.Mean())
	}
}

func TestThinDrawsCounted(t *testing.T) {
	th, _ := NewThin("t", 10, 5, stats.NewRNG(13))
	b := homogeneousBatch(t, 10, geom.Window{T0: 0, T1: 1, Rect: region4()}, 14)
	thinSurvivors(th, b.Tuples)
	if got := th.Stats().RandomDraws; got != uint64(b.Len()) {
		t.Fatalf("draws = %d, want %d", got, b.Len())
	}
}

func TestThinKeepProbabilityProperty(t *testing.T) {
	// Property: for any valid rate pair, the empirical keep fraction on a
	// large batch is close to λ2/λ1.
	w := geom.Window{T0: 0, T1: 1, Rect: region4()}
	b := homogeneousBatch(t, 2000, w, 15)
	f := func(seed int64, a, bf float64) bool {
		l1 := 1 + math.Abs(math.Mod(a, 100))
		l2 := l1 * (0.05 + 0.9*math.Abs(math.Mod(bf, 1)))
		if l2 >= l1 {
			l2 = l1 * 0.5
		}
		th, err := NewThin("t", l1, l2, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		frac := float64(len(thinSurvivors(th, b.Tuples))) / float64(b.Len())
		p := l2 / l1
		// 5 sigma binomial bound.
		tol := 5*math.Sqrt(p*(1-p)/float64(b.Len())) + 1e-9
		return math.Abs(frac-p) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
