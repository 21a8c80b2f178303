package stats

import (
	"errors"
	"math"
)

// ErrNotConverged is returned when an iterative special-function evaluation
// fails to converge. It indicates arguments far outside the usable range.
var ErrNotConverged = errors.New("stats: series did not converge")

const (
	gammaEps     = 3e-14
	gammaMaxIter = 500
	gammaFPMin   = 1e-300
)

// RegularizedGammaP computes the lower regularized incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0. It is the CDF of a Gamma(a, 1)
// variate and the building block of the chi-square CDF.
func RegularizedGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), errors.New("stats: RegularizedGammaP requires a > 0 and x >= 0")
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return p, err
	}
	q, err := gammaQContinuedFraction(a, x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - q, nil
}

// RegularizedGammaQ computes the upper regularized incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func RegularizedGammaQ(a, x float64) (float64, error) {
	p, err := RegularizedGammaP(a, x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - p, nil
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return math.NaN(), ErrNotConverged
}

// gammaQContinuedFraction evaluates Q(a,x) by a modified Lentz continued
// fraction, accurate for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.NaN(), ErrNotConverged
}

// ChiSquareSurvival returns the chi-square survival function, the p-value of an observed chi-square
// statistic x with k degrees of freedom.
func ChiSquareSurvival(x float64, k int) (float64, error) {
	if k <= 0 {
		return math.NaN(), errors.New("stats: ChiSquareSurvival requires k > 0")
	}
	if x <= 0 {
		return 1, nil
	}
	return RegularizedGammaQ(float64(k)/2, x/2)
}

// KolmogorovQ returns the Kolmogorov distribution survival function
// Q_KS(t) = 2 Σ_{j>=1} (-1)^{j-1} exp(-2 j² t²), the asymptotic p-value
// kernel of the KS test.
func KolmogorovQ(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t > 10 {
		return 0
	}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j)*float64(j)*t*t)
		sum += term
		if math.Abs(term) < 1e-12*math.Abs(sum)+1e-300 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
