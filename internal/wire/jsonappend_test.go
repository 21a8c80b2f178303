package wire

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// refAppendJSONFloat is the strconv rendering AppendJSONFloat must equal on
// every finite value (and equalled by construction before it gained its
// short-decimal path): the oracle of the table test and the fuzzer.
func refAppendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// floatChecker compares the two renderings without allocating per value, so
// the table test can afford tens of millions of them.
type floatChecker struct {
	t         testing.TB
	got, want []byte
	n         int
}

func (c *floatChecker) check(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	c.n++
	c.got = AppendJSONFloat(c.got[:0], f)
	c.want = refAppendJSONFloat(c.want[:0], f)
	if string(c.got) != string(c.want) {
		c.t.Fatalf("AppendJSONFloat(%x = %v) = %s, strconv renders %s", math.Float64bits(f), f, c.got, c.want)
	}
}

// checkAround checks f, −f and their neighbours on both sides.
func (c *floatChecker) checkAround(f float64) {
	for _, v := range [...]float64{f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1))} {
		c.check(v)
		c.check(-v)
	}
}

// floatSeeds are the values on and beside every boundary the short-decimal
// path has: zero, its six-place limit, its 2³¹ limit, the 'e' ranges.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	9.999995e-7, 0.9999995, 1 << 31, math.Nextafter(1<<31, 0), math.Nextafter(1<<31, math.Inf(1)),
	2147483647.999999, 0.30000000000000004, 123456.789012,
	math.Nextafter(21.5, 0), math.Nextafter(21.5, 22), math.Nextafter(0.1, 0), math.Nextafter(0.1, 1),
	math.Nextafter(4.35, 0), math.Nextafter(4.35, 5), 21.5, 0.1, 4.35, 5e-324, 2.2250738585072014e-308,
	1e21, math.Nextafter(1e21, 0), 1e-7, 5e-7, math.Nextafter(5e-7, 0), 1.7976931348623157e308,
}

// TestAppendJSONFloatMatchesStrconv runs the oracle over generated values so
// tier-1 exercises both renderer paths without -fuzz: random bit patterns
// (nearly all misses), k-place decimals for k = 0…8 (hits up to six places,
// misses past them) in every magnitude the short path admits, and the
// floats next to each.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	c := &floatChecker{t: t}
	for _, f := range floatSeeds {
		c.checkAround(f)
	}
	rounds := 180_000
	if testing.Short() {
		rounds = 10_000
	}
	rng := rand.New(rand.NewPCG(24, 1))
	for i := 0; i < rounds; i++ {
		for j := 0; j < 5; j++ {
			c.check(math.Float64frombits(rng.Uint64()))
		}
		for k := 0; k <= 8; k++ {
			// An integer of 0 to 52 bits scaled down by k places: for every
			// k, magnitudes from sub-unit to past 2³¹.
			scaled := float64(rng.Uint64()>>(12+rng.UintN(52))) / pow10[k]
			c.checkAround(scaled)
		}
	}
	if !testing.Short() && c.n < 1e7 {
		t.Fatalf("oracle ran over %d values, want ≥ 10⁷", c.n)
	}
}

func TestAppendJSONFloatZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, f := range []float64{21.5, -7.125, 0.30000000000000004, 1e-9} { // two hits, two misses
		if n := testing.AllocsPerRun(100, func() { buf = AppendJSONFloat(buf[:0], f) }); n != 0 {
			t.Fatalf("AppendJSONFloat(%v): %.1f allocs/op, want 0", f, n)
		}
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range floatSeeds {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		got := AppendJSONFloat(nil, v)
		if want := refAppendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("AppendJSONFloat(%x = %v) = %s, strconv renders %s", bits, v, got, want)
		}
		back, err := strconv.ParseFloat(string(got), 64)
		if err != nil || math.Float64bits(back) != bits {
			t.Fatalf("AppendJSONFloat(%x) = %s re-parses to %x (%v)", bits, got, math.Float64bits(back), err)
		}
	})
}
