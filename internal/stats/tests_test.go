package stats

import (
	"math"
	"testing"
)

func TestChiSquareUniformAcceptsUniform(t *testing.T) {
	g := NewRNG(100)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[g.Intn(10)]++
	}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("uniform data rejected: p = %g, X2 = %g", res.PValue, res.Statistic)
	}
	if res.DF != 9 {
		t.Errorf("DF = %d, want 9", res.DF)
	}
	if res.N != 100000 {
		t.Errorf("N = %d", res.N)
	}
}

func TestChiSquareUniformRejectsSkew(t *testing.T) {
	counts := []int{1000, 10, 10, 10, 10}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("heavily skewed data accepted: p = %g", res.PValue)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, err := ChiSquareUniform([]int{5}); err == nil {
		t.Error("single bin should error")
	}
	if _, err := ChiSquareUniform([]int{0, 0}); err == nil {
		t.Error("zero observations should error")
	}
	if _, err := ChiSquareUniform([]int{3, -1}); err == nil {
		t.Error("negative count should error")
	}
}

func TestKSUniformAcceptsUniform(t *testing.T) {
	g := NewRNG(101)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = g.Uniform(2, 7)
	}
	res, err := KSUniform(sample, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Errorf("uniform sample rejected: p = %g, D = %g", res.PValue, res.Statistic)
	}
}

func TestKSUniformRejectsNonUniform(t *testing.T) {
	g := NewRNG(102)
	sample := make([]float64, 5000)
	for i := range sample {
		// Quadratic CDF: density rising to the right.
		u := g.Float64()
		sample[i] = math.Sqrt(u)
	}
	res, err := KSUniform(sample, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("quadratic sample accepted as uniform: p = %g", res.PValue)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSUniform(nil, 0, 1); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := KSUniform([]float64{1}, 1, 1); err == nil {
		t.Error("degenerate range should error")
	}
}

func TestKSTestDoesNotMutateInput(t *testing.T) {
	sample := []float64{0.9, 0.1, 0.5}
	_, err := KSUniform(sample, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sample[0] != 0.9 || sample[1] != 0.1 {
		t.Error("KSUniform sorted the caller's slice")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty summary should be all zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Errorf("N = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %g", s.Variance())
	}
}

func TestGrid2D(t *testing.T) {
	g, err := NewGrid2D(0, 4, 0, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Add(0.5, 0.5) // cell (0,0)
	g.Add(3.9, 1.9) // cell (3,1)
	g.Add(-1, 0)    // outside
	if n := g.Counts[0] + g.Counts[len(g.Counts)-1]; n != 2 {
		t.Errorf("in-range observations = %d", n)
	}
	if g.Outside != 1 {
		t.Errorf("Outside = %d", g.Outside)
	}
	if g.Counts[0] != 1 {
		t.Error("cell (0,0) not counted")
	}
	if g.Counts[1*4+3] != 1 {
		t.Error("cell (3,1) not counted")
	}
	if _, err := NewGrid2D(0, 1, 0, 1, 0, 2); err == nil {
		t.Error("zero nx should error")
	}
	if _, err := NewGrid2D(1, 1, 0, 1, 2, 2); err == nil {
		t.Error("empty extent should error")
	}
}
