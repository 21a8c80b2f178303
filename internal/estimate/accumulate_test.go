package estimate

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stats"
)

// withKernel runs fn with the packed kernel on or off and restores the
// dispatch afterwards.
func withKernel(on bool, fn func()) {
	defer func(was bool) { useKernel = was }(useKernel)
	useKernel = on
	fn()
}

// sameBits reports whether a and b are the same float64 bit for bit, or both
// NaN: of two NaN operands x86 returns the first one's payload, and the
// compiler may commute the Go loop's additions, so which NaN a sum ends on
// is not the loop's to fix.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sumsDiffer names the first of the fourteen sums on which a and b differ.
func sumsDiffer(a, b *sums) (string, bool) {
	for k := range a.g {
		if !sameBits(a.g[k], b.g[k]) {
			return "g" + string(rune('0'+k)), true
		}
	}
	names := [10]string{"h00", "h01", "h02", "h03", "h11", "h12", "h13", "h22", "h23", "h33"}
	for k := range a.h {
		if !sameBits(a.h[k], b.h[k]) {
			return names[k], true
		}
	}
	return "", false
}

// specials are the values the kernel must treat exactly as the Go loop does:
// signed zeros, subnormals, infinities and NaN.
var specials = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, -0x1p-1060,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, math.MaxFloat64,
}

// accumulateInput draws n rows and rates from rng: coordinates in
// [−scale, scale], rates in [0, rate), and, where mix asks for them, special
// values mixed in — bit 0 in coordinates, bit 1 in rates (1/λ of +Inf and 0
// among them), bit 2 floor-clamped rates.
func accumulateInput(rng *stats.RNG, n int, scale, rate float64, mix uint8) ([][4]float64, []float64) {
	rows, rates := make([][4]float64, n), make([]float64, n)
	for i := range rows {
		rows[i] = [4]float64{1, scale * rng.Uniform(-1, 1), scale * rng.Uniform(-1, 1), scale * rng.Uniform(-1, 1)}
		rates[i] = rate * rng.Float64()
		if mix&1 != 0 && rng.Float64() < 0.2 {
			rows[i][1+rng.Intn(3)] = specials[rng.Intn(len(specials))]
		}
		if mix&2 != 0 && rng.Float64() < 0.2 {
			rates[i] = [...]float64{math.Inf(1), 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64}[rng.Intn(5)]
		}
		if mix&4 != 0 && rng.Float64() < 0.3 {
			rates[i] = 1 / intensity.DefaultFloor
		}
	}
	return rows, rates
}

// checkAccumulate sums rows at rates from the running sums start, once
// through the kernel and once through the Go loop, and fails on any bit of
// difference.
func checkAccumulate(t *testing.T, start sums, rows [][4]float64, rates []float64) {
	t.Helper()
	kern, ref := start, start
	accumulateKernel(&kern.g, &kern.h, rows, rates)
	accumulateGo(&ref.g, &ref.h, rows, rates)
	if name, differ := sumsDiffer(&kern, &ref); differ {
		t.Fatalf("%d points: %s differs: kernel g=%v h=%v, Go g=%v h=%v", len(rows), name, kern.g, kern.h, ref.g, ref.h)
	}
}

// TestAccumulateMatchesGo holds the packed kernel to the Go loop bit for bit
// on all fourteen sums: random points, floor-clamped ones, reciprocal rates
// of +Inf and 0, signed zeros, subnormal and non-finite coordinates, every
// count from 0 to 9, running sums carried in, and a pass on either side of
// the chunk edge.
func TestAccumulateMatchesGo(t *testing.T) {
	if !haveKernel() {
		t.Skip("no packed kernel on this CPU")
	}
	rng := stats.NewRNG(47)
	for mix := uint8(0); mix < 8; mix++ {
		for n := 0; n <= 9; n++ {
			for rep := 0; rep < 50; rep++ {
				rows, rates := accumulateInput(rng, n, math.Ldexp(1, rng.Intn(40)-20), math.Ldexp(1, rng.Intn(40)-20), mix)
				var start sums
				if rep%2 == 1 {
					start.g = [4]float64{rng.Normal(0, 1e3), rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
					for k := range start.h {
						start.h[k] = rng.Normal(0, 1e3)
					}
				}
				checkAccumulate(t, start, rows, rates)
			}
		}
		rows, rates := accumulateInput(rng, 20000, 1, 1, mix)
		checkAccumulate(t, sums{}, rows, rates)
	}
	// Whole passes, whose rates a Go loop computes and which hand the kernel
	// at most chunk points at a time: on either side of the chunk edge, at a
	// point feasible everywhere and at one where some rates are clamped.
	for _, n := range []int{chunk - 1, chunk, chunk + 1} {
		rows, _ := accumulateInput(rng, n, 1, 1, 0)
		p := points{rows: rows, rates: make([]float64, n)}
		for _, c := range []Centred{{float64(n) / 8, 0.3, -0.2, 0.1}, {1, 3, 0, 0}} {
			var kern, ref sums
			invKern, invRef := make([]float64, n), make([]float64, n)
			withKernel(true, func() { kern = p.pass(c, intensity.DefaultFloor, invKern) })
			withKernel(false, func() { ref = p.pass(c, intensity.DefaultFloor, invRef) })
			if name, differ := sumsDiffer(&kern, &ref); differ || kern.low != ref.low {
				t.Fatalf("pass over %d points at %v: %s differs (low %v, %v)", n, c, name, kern.low, ref.low)
			}
			for i := range invKern {
				if math.Float64bits(invKern[i]) != math.Float64bits(invRef[i]) {
					t.Fatalf("pass over %d points at %v: inv[%d] differs", n, c, i)
				}
			}
		}
	}
}

// steadyBatches samples k batches the way BenchmarkFlattenSteady does —
// one linear intensity on a unit epoch, the batch moved to epoch i — with
// expected sizes cycling from below the fit threshold to past the chunk edge.
func steadyBatches(t *testing.T, k int) ([][]mdpp.Event, []geom.Window) {
	t.Helper()
	region := geom.NewRect(0, 0, 4, 4)
	unit := geom.Window{T0: 0, T1: 1, Rect: region}
	rng := stats.NewRNG(600)
	sizes := []float64{8, 128, 1000, 5000}
	events := make([][]mdpp.Event, k)
	windows := make([]geom.Window, k)
	for i := range events {
		rate := sizes[i%len(sizes)] / unit.Volume()
		proc, err := mdpp.NewInhomogeneous(intensity.NewLinear(intensity.Theta{0.7 * rate, 0.3 * rate, 0.05 * rate, -0.025 * rate}), region)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := proc.Sample(unit, rng)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ev {
			ev[j].T += float64(i)
		}
		events[i] = ev
		windows[i] = geom.Window{T0: float64(i), T1: float64(i + 1), Rect: region}
	}
	return events, windows
}

// TestFitsMatchWithoutKernel runs the F-operator's chain of warm-started
// fits, and a cold FitMLE of every batch, with the kernel and without: the
// optimum, λc, every reciprocal rate, the iterations and the passes must be
// the same bits.
func TestFitsMatchWithoutKernel(t *testing.T) {
	if !haveKernel() {
		t.Skip("no packed kernel on this CPU")
	}
	events, windows := steadyBatches(t, 600)
	type outcome struct {
		batch BatchFit
		inv   []float64
		cold  Result
	}
	run := func() []outcome {
		out := make([]outcome, len(events))
		var warm *Centred
		for i, ev := range events {
			if len(ev) < 4 {
				warm = nil
				continue
			}
			inv := make([]float64, len(ev))
			bf, err := FitBatch(tuplesOf(ev), windows[i], warm, inv)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := FitMLE(ev, windows[i])
			if err != nil {
				t.Fatal(err)
			}
			out[i] = outcome{bf, inv, cold}
			warm = nil
			if bf.Converged {
				warm = &out[i].batch.Centred
			}
		}
		return out
	}
	var on, off []outcome
	withKernel(true, func() { on = run() })
	withKernel(false, func() { off = run() })
	fitted := 0
	for i := range on {
		a, b := on[i], off[i]
		if a.batch != b.batch || a.cold != b.cold {
			t.Fatalf("batch %d (%d events): kernel %+v / %+v, Go %+v / %+v", i, len(events[i]), a.batch, a.cold, b.batch, b.cold)
		}
		for j := range a.inv {
			if math.Float64bits(a.inv[j]) != math.Float64bits(b.inv[j]) {
				t.Fatalf("batch %d: inv[%d] = %x with the kernel, %x without", i, j, math.Float64bits(a.inv[j]), math.Float64bits(b.inv[j]))
			}
		}
		if a.batch.Passes > 0 {
			fitted++
		}
	}
	if fitted < 500 {
		t.Fatalf("only %d of %d batches were fitted; the comparison is thin", fitted, len(on))
	}
}

// FuzzAccumulate holds the kernel to the Go loop on generated points: any
// count, scale and rate, special values mixed into coordinates and rates,
// running sums carried in.
func FuzzAccumulate(f *testing.F) {
	f.Add(int64(1), uint16(128), 1.0, 1.0, uint8(0), 0.0)
	f.Add(int64(2), uint16(9), 1e-300, 1e300, uint8(7), -1.0)
	f.Add(int64(3), uint16(4097), 0x1p-1030, 1e9, uint8(5), 1e12)
	f.Add(int64(4), uint16(3), math.Inf(1), 0.0, uint8(2), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n uint16, scale, rate float64, mix uint8, carry float64) {
		if !haveKernel() {
			t.Skip("no packed kernel on this CPU")
		}
		rng := stats.NewRNG(seed)
		rows, rates := accumulateInput(rng, int(n%8192), scale, rate, mix)
		start := sums{g: [4]float64{carry, -carry, carry / 3, 0}}
		for k := range start.h {
			start.h[k] = carry * float64(k)
		}
		checkAccumulate(t, start, rows, rates)
	})
}
