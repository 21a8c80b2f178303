package stats

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/codec"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

// TestRNGStateRoundTrip: a generator restored from its saved state
// continues the exact stream — plain draws, cold samplers and keyed forks —
// whatever the generator it is restored into.
func TestRNGStateRoundTrip(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 17; i++ {
		g.Float64()
	}
	g.Normal(0, 1)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	g.EncodeState(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := codec.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h := NewRNG(1)
	h.DecodeState(r)
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Remaining())
	}
	for i := 0; i < 100; i++ {
		if a, b := g.Float64(), h.Float64(); a != b {
			t.Fatalf("draw %d: %v restored, %v original", i, b, a)
		}
	}
	if g.Poisson(40) != h.Poisson(40) || g.Intn(1000) != h.Intn(1000) || g.ForkKeyed(3).Float64() != h.ForkKeyed(3).Float64() {
		t.Fatal("restored generator's samplers or keyed forks diverge")
	}
}

func TestRNGSeedAccessor(t *testing.T) {
	if got := NewRNG(7).seed; got != 7 {
		t.Fatalf("seed = %d, want 7", got)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Fork()
	c2 := parent.Fork()
	equal := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > n/100 {
		t.Fatalf("forked streams coincide on %d/%d draws", equal, n)
	}
}

func TestForkDeterminism(t *testing.T) {
	f1 := NewRNG(5).Fork()
	f2 := NewRNG(5).Fork()
	for i := 0; i < 100; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("fork of identical parents diverged")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) produced %g", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	g := NewRNG(4)
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(g.Uniform(0, 10))
	}
	if math.Abs(s.Mean()-5) > 0.1 {
		t.Fatalf("Uniform(0,10) mean = %g, want ≈5", s.Mean())
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if !g.Bernoulli(1.0) || !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(p>=1) must always be true")
		}
		if g.Bernoulli(0.0) || g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(p<=0) must always be false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(6)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if g.Bernoulli(p) {
				hits++
			}
		}
		freq := float64(hits) / n
		if math.Abs(freq-p) > 0.01 {
			t.Errorf("Bernoulli(%g) frequency = %g", p, freq)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(7)
	for _, lambda := range []float64{0.5, 2, 10} {
		var s Summary
		for i := 0; i < 50000; i++ {
			s.Add(g.Exponential(lambda))
		}
		want := 1 / lambda
		if math.Abs(s.Mean()-want) > 0.05*want {
			t.Errorf("Exponential(%g) mean = %g, want ≈%g", lambda, s.Mean(), want)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(8)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(g.Normal(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.05 {
		t.Errorf("Normal(3,2) mean = %g", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 0.05 {
		t.Errorf("Normal(3,2) stddev = %g", s.StdDev())
	}
}

func TestPoissonZeroAndNegativeMean(t *testing.T) {
	g := NewRNG(9)
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestPoissonMoments(t *testing.T) {
	g := NewRNG(10)
	// Covers both the Knuth (<30) and PTRS (>=30) branches.
	for _, mean := range []float64{0.5, 3, 12, 29.9, 30, 80, 400, 5000} {
		var s Summary
		n := 20000
		for i := 0; i < n; i++ {
			s.Add(float64(g.Poisson(mean)))
		}
		tol := 4 * math.Sqrt(mean/float64(n)) // 4 standard errors
		if math.Abs(s.Mean()-mean) > tol {
			t.Errorf("Poisson(%g) mean = %g (tol %g)", mean, s.Mean(), tol)
		}
		// Variance should also be ≈ mean.
		if math.Abs(s.Variance()-mean) > 0.1*mean+1 {
			t.Errorf("Poisson(%g) variance = %g", mean, s.Variance())
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	g := NewRNG(11)
	cfg := &quick.Config{MaxCount: 200}
	f := func(mean float64) bool {
		m := math.Abs(math.Mod(mean, 1000))
		return g.Poisson(m) >= 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntnAndPerm(t *testing.T) {
	g := NewRNG(12)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := g.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
	p := g.Perm(100)
	mark := make([]bool, 100)
	for _, v := range p {
		if mark[v] {
			t.Fatal("Perm produced duplicate")
		}
		mark[v] = true
	}
}

// TestRNGStreamPinned pins the generator's output. A durable session is
// recovered by restoring saved generator states and replaying its log
// through the same operators, so the stream a seed yields has to survive a
// toolchain upgrade: PCG-DXSM is specified (and math/rand/v2 promises not to
// change PCG's output), the seed expansion and the 53-bit Float64 are this
// package's — a change to any of them must be loud, and comes with a
// snapshotVersion bump (internal/server/snapshot.go).
func TestRNGStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *RNG
		want [8]float64
	}{
		{"NewRNG(1)", NewRNG(1), [8]float64{0.5156124069557046, 0.4904150375817454, 0.6785109156336477, 0.1656399299607897,
			0.21955266799823614, 0.42398715897252426, 0.9025172038121578, 0.6406177696739773}},
		{"NewRNG(1).Fork()", NewRNG(1).Fork(), [8]float64{0.84954923800564, 0.4688786581341171, 0.15366633333183521, 0.877481125956939,
			0.2668754017483016, 0.31195500047575675, 0.4745335408711139, 0.4280713383260043}},
		{"NewRNG(1).ForkKeyed(7)", NewRNG(1).ForkKeyed(7), [8]float64{0.11897876151059983, 0.82337446172996, 0.6256204517634065, 0.34532377586464635,
			0.3221100356910449, 0.06601798021714367, 0.7639930872989625, 0.7545334225479623}},
	} {
		for i, want := range tc.want {
			if got := tc.g.Float64(); got != want {
				t.Fatalf("%s: draw %d = %v, want %v", tc.name, i, got, want)
			}
		}
	}
}

// TestForkKeyedIgnoresConsumption: a keyed fork depends on (seed, key) only —
// not on how much of the parent was drawn, by which sampler, or which forks
// came before — and distinct keys give distinct streams.
func TestForkKeyedIgnoresConsumption(t *testing.T) {
	fresh := NewRNG(11).ForkKeyed(3)
	used := NewRNG(11)
	for i := 0; i < 1000; i++ {
		used.Float64()
		used.Poisson(40)
		used.Normal(0, 1)
	}
	used.Fork()
	used.ForkKeyed(4)
	late, other := used.ForkKeyed(3), used.ForkKeyed(4)
	same := 0
	for i := 0; i < 100; i++ {
		a, b, c := fresh.Float64(), late.Float64(), other.Float64()
		if a != b {
			t.Fatalf("draw %d: keyed fork of a consumed parent gives %v, of a fresh one %v", i, b, a)
		}
		if a == c {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("forks keyed 3 and 4 coincide on %d of 100 draws", same)
	}
}

// TestRNGFootprint: the generator is its 16 bytes of PCG state and the seed
// kept for ForkKeyed — a session holds one per operator — and no sampler
// allocates, the per-tuple ones least of all.
func TestRNGFootprint(t *testing.T) {
	if size := unsafe.Sizeof(RNG{}); size != 24 {
		t.Fatalf("RNG is %d bytes, want 24 (16 of generator state + the seed)", size)
	}
	g := NewRNG(3)
	for name, draw := range map[string]func(){
		"Bernoulli":   func() { g.Bernoulli(0.5) },
		"Float64":     func() { g.Float64() },
		"Poisson":     func() { g.Poisson(50) },
		"Exponential": func() { g.Exponential(2) },
		"Normal":      func() { g.Normal(0, 1) },
		"Intn":        func() { g.Intn(10) },
	} {
		if allocs := testing.AllocsPerRun(100, draw); allocs != 0 {
			t.Errorf("%s allocates %v times per draw", name, allocs)
		}
	}
}
