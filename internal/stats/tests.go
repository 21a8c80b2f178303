package stats

import (
	"errors"
	"math"
	"sort"
)

// ChiSquareUniformResult is the outcome of a chi-square test against the
// uniform distribution over equal-probability bins.
type ChiSquareUniformResult struct {
	Statistic float64 // Pearson X² statistic
	DF        int     // degrees of freedom (bins - 1)
	PValue    float64 // survival probability under H0 (uniformity)
	N         int     // number of observations
	Bins      int     // number of bins used
}

// ChiSquareUniform tests whether counts are consistent with a uniform
// multinomial across the bins. All bins are assumed to have equal expected
// probability. Returns an error when there are fewer than two bins or no
// observations.
func ChiSquareUniform(counts []int) (ChiSquareUniformResult, error) {
	if len(counts) < 2 {
		return ChiSquareUniformResult{}, errors.New("stats: ChiSquareUniform requires at least 2 bins")
	}
	n := 0
	for _, c := range counts {
		if c < 0 {
			return ChiSquareUniformResult{}, errors.New("stats: ChiSquareUniform requires non-negative counts")
		}
		n += c
	}
	if n == 0 {
		return ChiSquareUniformResult{}, errors.New("stats: ChiSquareUniform requires at least one observation")
	}
	expected := float64(n) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	df := len(counts) - 1
	p, err := ChiSquareSurvival(x2, df)
	if err != nil {
		return ChiSquareUniformResult{}, err
	}
	return ChiSquareUniformResult{Statistic: x2, DF: df, PValue: p, N: n, Bins: len(counts)}, nil
}

// KSResult is the outcome of a one-sample Kolmogorov–Smirnov test.
type KSResult struct {
	Statistic float64 // D_n, the sup-distance between empirical and model CDF
	PValue    float64 // asymptotic p-value with Stephens' small-sample correction
	N         int
}

// KSUniform tests whether the sample is drawn from Uniform(lo, hi). The
// sample is copied and sorted internally.
func KSUniform(sample []float64, lo, hi float64) (KSResult, error) {
	if hi <= lo {
		return KSResult{}, errors.New("stats: KSUniform requires hi > lo")
	}
	cdf := func(v float64) float64 {
		switch {
		case v <= lo:
			return 0
		case v >= hi:
			return 1
		default:
			return (v - lo) / (hi - lo)
		}
	}
	return KSTest(sample, cdf)
}

// KSTest tests the sample against an arbitrary continuous model CDF.
func KSTest(sample []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(sample)
	if n == 0 {
		return KSResult{}, errors.New("stats: KSTest requires a non-empty sample")
	}
	s := make([]float64, n)
	copy(s, sample)
	sort.Float64s(s)
	d := 0.0
	for i, v := range s {
		f := cdf(v)
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	sn := math.Sqrt(float64(n))
	t := (sn + 0.12 + 0.11/sn) * d
	return KSResult{Statistic: d, PValue: KolmogorovQ(t), N: n}, nil
}

// Summary holds streaming moment estimates computed with Welford's
// algorithm, plus extrema.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add incorporates a new observation.
func (s *Summary) Add(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Mean returns the sample mean, or zero for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance, or zero when fewer than two
// observations have been added.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}
