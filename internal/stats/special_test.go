package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegularizedGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := RegularizedGammaP(1, x)
		if err != nil {
			t.Fatalf("P(1,%g): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1,%g) = %.12f, want %.12f", x, got, want)
		}
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.25, 1, 4} {
		got, err := RegularizedGammaP(0.5, x)
		if err != nil {
			t.Fatalf("P(0.5,%g): %v", x, err)
		}
		want := math.Erf(math.Sqrt(x))
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("P(0.5,%g) = %.12f, want %.12f", x, got, want)
		}
	}
}

func TestRegularizedGammaBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 50))
		x = math.Abs(math.Mod(x, 200))
		p, err := RegularizedGammaP(a, x)
		if err != nil {
			return false
		}
		return p >= -1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRegularizedGammaPQComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 3, 10} {
		for _, x := range []float64{0.1, 1, 5, 20} {
			p, err1 := RegularizedGammaP(a, x)
			q, err2 := RegularizedGammaQ(a, x)
			if err1 != nil || err2 != nil {
				t.Fatalf("gamma(%g,%g): %v %v", a, x, err1, err2)
			}
			if math.Abs(p+q-1) > 1e-10 {
				t.Errorf("P+Q = %g at a=%g x=%g", p+q, a, x)
			}
		}
	}
}

func TestRegularizedGammaErrors(t *testing.T) {
	if _, err := RegularizedGammaP(0, 1); err == nil {
		t.Error("a=0 should error")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("x<0 should error")
	}
	if _, err := RegularizedGammaP(math.NaN(), 1); err == nil {
		t.Error("NaN a should error")
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Chi-square with k=2 is Exponential(1/2): CDF(x) = 1 - survival(x) =
	// 1 - exp(-x/2).
	for _, x := range []float64{0.5, 1, 3, 8} {
		s, err := ChiSquareSurvival(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x/2)
		if got := 1 - s; math.Abs(got-want) > 1e-10 {
			t.Errorf("CDF(%g,2) = %g, want %g", x, got, want)
		}
	}
	// Median of chi-square(1) is ≈ 0.4549.
	s, err := ChiSquareSurvival(0.454936, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5) > 1e-4 {
		t.Errorf("ChiSquareSurvival(median,1) = %g", s)
	}
}

// TestChiSquareSurvivalMatchesCDF holds the survival function (computed
// through Q) to the chi-square CDF P(k/2, x/2).
func TestChiSquareSurvivalMatchesCDF(t *testing.T) {
	for _, k := range []int{1, 2, 5, 30} {
		for _, x := range []float64{0.5, 2, 10, 40} {
			c, err1 := RegularizedGammaP(float64(k)/2, x/2)
			s, err2 := ChiSquareSurvival(x, k)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Abs(c+s-1) > 1e-10 {
				t.Errorf("CDF+survival = %g at x=%g k=%d", c+s, x, k)
			}
		}
	}
}

func TestChiSquareInvalidDF(t *testing.T) {
	if _, err := ChiSquareSurvival(1, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := ChiSquareSurvival(1, -1); err == nil {
		t.Error("k<0 should error")
	}
}

func TestChiSquareAtZero(t *testing.T) {
	for _, x := range []float64{0, -1} {
		if s, err := ChiSquareSurvival(x, 3); err != nil || s != 1 {
			t.Errorf("survival(%g) = %g, err %v", x, s, err)
		}
	}
}

func TestKolmogorovQ(t *testing.T) {
	if KolmogorovQ(0) != 1 {
		t.Error("Q(0) must be 1")
	}
	if KolmogorovQ(-1) != 1 {
		t.Error("Q(<0) must be 1")
	}
	if KolmogorovQ(50) != 0 {
		t.Error("Q(large) must be 0")
	}
	// Known value: Q(1.36) ≈ 0.049 (the classic 5% critical point).
	got := KolmogorovQ(1.36)
	if math.Abs(got-0.049) > 0.002 {
		t.Errorf("Q(1.36) = %g, want ≈0.049", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for x := 0.1; x < 3; x += 0.1 {
		v := KolmogorovQ(x)
		if v > prev+1e-12 {
			t.Fatalf("KolmogorovQ not monotone at %g", x)
		}
		prev = v
	}
}
