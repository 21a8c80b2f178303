package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The A/A tool: N full invocations of the same code. What two halves of
// those runs disagree by is the noise floor the bounds in BENCHMARK.json
// must clear; a bound below it would reject unchanged code.

// aaCell is one metric × workload over the N invocations.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	// Spread is (Q3−Q1)/median; HalfGap is |median(first half) −
	// median(second half)| / median(first half).
	Spread  float64 `json:"spread"`
	HalfGap float64 `json:"half_gap"`
}

type aaReport struct {
	Invocations int      `json:"invocations"`
	Seconds     float64  `json:"seconds"`
	Rounds      int      `json:"rounds"`
	BaseSeed    int64    `json:"base_seed"`
	NoisyRounds int      `json:"noisy_host_rounds"`
	Failed      int      `json:"failed_operations"`
	Cells       []aaCell `json:"cells"`
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func runAA(ctx context.Context, ev *env, n int, seed int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 invocations, got %d", n)
	}
	values := map[string]map[string][]float64{}
	rep := aaReport{Invocations: n, Seconds: seconds, Rounds: defaultRounds, BaseSeed: seed}
	for i := 0; i < n; i++ {
		// Workloads interleave (A B C D A B C D …) so a slow stretch of the
		// host lands on every workload, not on all runs of one.
		for _, w := range workloads {
			out, err := measureEndToEnd(ctx, ev, w, seed+int64(i), seconds, defaultRounds)
			if err != nil {
				return err
			}
			if len(out.problems) > 0 {
				return fmt.Errorf("%s invocation %d: %w: %s", w.name, i+1, errIncorrect, strings.Join(out.problems, "; "))
			}
			rep.NoisyRounds += out.noisy
			rep.Failed += out.failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, m := range endToEnd {
				values[w.name][m.name] = append(values[w.name][m.name], out.values[m.name])
			}
		}
	}
	fmt.Printf("%-14s %-26s %12s %12s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "min", "max", "spread", "halfgap")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := values[w.name][m.name]
			q1, q2, q3 := quartiles(xs)
			half := len(xs) / 2
			a, b := median(xs[:half]), median(xs[half:])
			c := aaCell{
				Workload: w.name, Metric: m.name, Unit: m.unit, Values: xs,
				Median: q2, Q1: q1, Q3: q3,
				Min: slices.Min(xs), Max: slices.Max(xs),
				Spread: (q3 - q1) / q2, HalfGap: math.Abs(a-b) / a,
			}
			rep.Cells = append(rep.Cells, c)
			fmt.Printf("%-14s %-26s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %8.4f\n",
				c.Workload, c.Metric, c.Median, c.Q1, c.Q3, c.Min, c.Max, c.Spread, c.HalfGap)
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(ev.outDir, "aa.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s (%d invocations, %d noisy_host rounds, %d failed operations)\n", path, n, rep.NoisyRounds, rep.Failed)
	return nil
}
