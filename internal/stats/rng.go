// Package stats provides the statistical substrate for CrAQR: seeded random
// number generation, samplers for the distributions used by point-process
// simulation (Bernoulli, Poisson, exponential, normal), histograms,
// goodness-of-fit tests (chi-square, Kolmogorov–Smirnov) and streaming
// summaries. Everything is deterministic given a seed, so experiments and
// tests are reproducible.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/codec"
)

// RNG is a seeded source of random variates: a PCG-DXSM generator
// (math/rand/v2's PCG, whose output function is specified and pinned by this
// package's tests) held by value — 16 bytes of state, where a session's
// topology keeps one generator per operator — with the samplers needed by the
// point-process layer. The draws an epoch makes per tuple (Float64,
// Bernoulli, Uniform, Poisson) read the generator directly; the rest go
// through a rand.Rand over the same state. RNG is not safe for concurrent
// use; use Fork to derive independent generators for concurrent components.
type RNG struct {
	pcg  rand.PCG
	seed int64
}

// seedStream separates the two words a seed is expanded into.
const seedStream = 0xda942042e4dd58b5

// NewRNG returns a deterministic generator seeded with seed. The generator's
// two state words are splitmix64 images of the seed, so neighbouring seeds
// (1, 2, 3, …: what callers pass) start far apart.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.pcg.Seed(splitmix64(uint64(seed)), splitmix64(uint64(seed)^seedStream))
	return g
}

// Seed returns the seed the generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Fork derives a new independent generator from g. The derived stream is a
// deterministic function of g's current state, so forking at the same point
// in a program always yields the same child stream.
func (g *RNG) Fork() *RNG {
	return NewRNG(int64(g.pcg.Uint64() >> 1))
}

// ForkKeyed derives an independent generator from g's seed and a caller
// chosen key, without consuming g's stream: the same (seed, key) pair always
// yields the same child, no matter how much of g's stream has been used or
// in which order forks happen. Concurrent shards use it to obtain stable
// per-shard streams, so serial and parallel executions of the same program
// draw identical variates (the fabricator keys cell pipelines this way).
func (g *RNG) ForkKeyed(key uint64) *RNG {
	return NewRNG(int64(splitmix64(uint64(g.seed)^splitmix64(key))) & (1<<63 - 1))
}

// pcgStateBytes is the length of rand.PCG's binary form.
const pcgStateBytes = 20

// EncodeState appends the generator's seed and position to w: restoring
// them continues the exact stream, keyed forks included.
func (g *RNG) EncodeState(w *codec.Writer) {
	state, err := g.pcg.MarshalBinary()
	if err != nil || len(state) != pcgStateBytes {
		w.Fail(fmt.Errorf("stats: encoding generator state: %v", err))
		return
	}
	w.Varint(g.seed)
	w.Raw(state)
}

// DecodeState restores what EncodeState wrote.
func (g *RNG) DecodeState(r *codec.Reader) {
	seed := r.Varint()
	state := r.Raw(pcgStateBytes)
	if r.Err() != nil {
		return
	}
	if err := g.pcg.UnmarshalBinary(state); err != nil {
		r.Failf("generator state: %v", err)
		return
	}
	g.seed = seed
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong 64-bit
// mixer used to expand seeds and to decorrelate keyed fork seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cold returns the samplers of math/rand/v2 over g's generator, for the
// variates no epoch draws per tuple.
func (g *RNG) cold() *rand.Rand { return rand.New(&g.pcg) }

// Float64 returns a uniform variate in [0, 1): the low 53 bits of one
// generator output (math/rand/v2's own construction; PCG-DXSM's output bits
// are all of one quality).
func (g *RNG) Float64() float64 {
	return float64(g.pcg.Uint64()<<11>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.cold().IntN(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.cold().Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.cold().Shuffle(n, swap) }

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped, which matches the paper's treatment of rate violations where
// retaining probabilities above one are rounded to one.
func (g *RNG) Bernoulli(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return g.Float64() < p
}

// Exponential returns an exponential variate with rate lambda (mean
// 1/lambda). It panics if lambda <= 0.
func (g *RNG) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("stats: Exponential requires lambda > 0")
	}
	return g.cold().ExpFloat64() / lambda
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.cold().NormFloat64()
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's multiplication method; for large means it uses the PTRS
// transformed-rejection sampler (Hörmann 1993), which is O(1) per variate.
// A non-positive mean yields zero.
func (g *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return g.poissonKnuth(mean)
	default:
		return g.poissonPTRS(mean)
	}
}

func (g *RNG) poissonKnuth(mean float64) int {
	limit := math.Exp(-mean)
	k := 0
	p := g.Float64()
	for p > limit {
		k++
		p *= g.Float64()
	}
	return k
}

// poissonPTRS implements the transformed rejection sampler with squeeze.
func (g *RNG) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mean)
	for {
		u := g.Float64() - 0.5
		v := g.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMu-mean-lg {
			return int(k)
		}
	}
}
