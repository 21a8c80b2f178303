package pmat

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/stream"
)

// thinSurvivors runs th's kernel over tuples — one BeginFused, a Bernoulli
// draw per tuple on the returned generator, one EndFused — and returns the
// survivors.
func thinSurvivors(th *Thin, tuples []stream.Tuple) []stream.Tuple {
	p, rng := th.BeginFused()
	var kept []stream.Tuple
	for _, tp := range tuples {
		if rng.Bernoulli(p) {
			kept = append(kept, tp)
		}
	}
	th.EndFused(len(tuples), len(kept))
	return kept
}

// flattenSurvivors runs f's kernel, ProcessFused, over b and returns the
// tuples its keep-mask marks.
func flattenSurvivors(t testing.TB, f *Flatten, b stream.Batch) []stream.Tuple {
	t.Helper()
	keep := make([]bool, b.Len())
	if _, err := f.ProcessFused(b, keep); err != nil {
		t.Fatal(err)
	}
	var kept []stream.Tuple
	for i, k := range keep {
		if k {
			kept = append(kept, b.Tuples[i])
		}
	}
	return kept
}

// nextDraws returns the next n uniforms of rng.
func nextDraws(rng *stats.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// TestProcessRunsTheKernel: F's and T's Process are the kernels the epoch
// program runs, over one whole batch. Two operators on one seed, one driven
// through Process and one through the kernel API, must end with equal flow
// counters, equal reports and generators at the same point of their
// sequences — so what times Process times what the program runs.
func TestProcessRunsTheKernel(t *testing.T) {
	w := geom.Window{T0: 0, T1: 1, Rect: region4()}
	small := stream.Batch{Attr: "rain", Window: w}
	for i := 0; i < minBatchForFit-3; i++ {
		small.Tuples = append(small.Tuples, stream.Tuple{ID: uint64(i), T: 0.5, X: 1 + float64(i)/4, Y: 2})
	}
	batches := []stream.Batch{
		inhomogeneousBatch(t, skewedIntensity(t), w, 1),
		{Attr: "rain", Window: w},
		small,
		homogeneousBatch(t, 40, w, 2),
	}
	for i := range batches {
		batches[i] = movedTo(batches[i], float64(i))
	}

	t.Run("F", func(t *testing.T) {
		var ops [2]*Flatten
		for i := range ops {
			var err error
			if ops[i], err = NewFlatten("f", FlattenConfig{TargetRate: 3}, stats.NewRNG(5)); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches {
			if err := ops[0].Process(b); err != nil {
				t.Fatal(err)
			}
			flattenSurvivors(t, ops[1], b)
		}
		if a, b := ops[0].Stats(), ops[1].Stats(); a != b || a.TuplesOut == 0 {
			t.Errorf("stats: Process %+v, kernel %+v", a, b)
		}
		if a, b := ops[0].LastReport(), ops[1].LastReport(); a != b || a.Batch != len(batches) {
			t.Errorf("last report: Process %+v, kernel %+v", a, b)
		}
		if a, b := retainedReports(ops[0]), retainedReports(ops[1]); !slices.Equal(a, b) {
			t.Errorf("retained reports: Process %+v, kernel %+v", a, b)
		}
		if a, b := nextDraws(ops[0].rng, 100), nextDraws(ops[1].rng, 100); !slices.Equal(a, b) {
			t.Error("the generators are at different points of their sequences")
		}
	})

	t.Run("T", func(t *testing.T) {
		var ops [2]*Thin
		for i := range ops {
			var err error
			if ops[i], err = NewThin("t", 40, 15, stats.NewRNG(6)); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range batches {
			if err := ops[0].Process(b); err != nil {
				t.Fatal(err)
			}
			thinSurvivors(ops[1], b.Tuples)
		}
		if a, b := ops[0].Stats(), ops[1].Stats(); a != b || a.TuplesOut == 0 {
			t.Errorf("stats: Process %+v, kernel %+v", a, b)
		}
		if a, b := nextDraws(ops[0].rng, 100), nextDraws(ops[1].rng, 100); !slices.Equal(a, b) {
			t.Error("the generators are at different points of their sequences")
		}
	})
}
