package experiments

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
)

// fig2Grid returns the 3×3 grid of the paper's Fig. 2 walkthrough.
func fig2Grid() (*geom.Grid, error) {
	return geom.NewGrid(geom.NewRect(0, 0, 6, 6), 9)
}

// batchFromEvents converts sampled events into a stream batch.
func batchFromEvents(attr string, w geom.Window, events []mdpp.Event) stream.Batch {
	b := stream.Batch{Attr: attr, Window: w}
	for i, e := range events {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(i + 1), Attr: attr, T: e.T, X: e.X, Y: e.Y})
	}
	return b
}

// thinSurvivors runs th's kernel over tuples — a Bernoulli draw per tuple on
// its generator, as the epoch program draws it — and returns the survivors.
func thinSurvivors(th *pmat.Thin, tuples []stream.Tuple) []stream.Tuple {
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

// flattenSurvivors runs fl's kernel over b and returns the batch of the
// tuples its keep-mask marks.
func flattenSurvivors(fl *pmat.Flatten, b stream.Batch) (stream.Batch, error) {
	keep := make([]bool, b.Len())
	if _, err := fl.ProcessFused(b, keep); err != nil {
		return stream.Batch{}, err
	}
	out := stream.Batch{Attr: b.Attr, Window: b.Window}
	for i, k := range keep {
		if k {
			out.Tuples = append(out.Tuples, b.Tuples[i])
		}
	}
	return out, nil
}

// E1Fig2 reproduces the paper's Fig. 2: three queries (rain at the highest
// rate over four whole cells; temp over two whole cells; temp at the lowest
// rate over a sub-cell region) are inserted into a 3×3 grid and the
// resulting execution topology is checked against the paper's construction
// rules and rendered.
func E1Fig2(o Options) (*Table, error) {
	o = o.withDefaults()
	grid, err := fig2Grid()
	if err != nil {
		return nil, err
	}
	fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(o.Seed))
	if err != nil {
		return nil, err
	}
	specs := []struct {
		q    query.Query
		note string
	}{
		{query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 12}, "4 whole cells, no P"},
		{query.Query{Attr: "temp", Region: geom.NewRect(4, 0, 6, 4), Rate: 8}, "2 whole cells, no P"},
		{query.Query{Attr: "temp", Region: geom.NewRect(1, 4, 3, 6), Rate: 3}, "sub-cell region, P required"},
	}
	tab := &Table{
		ID:     "E1",
		Title:  "Fig. 2 topology construction (λ1 > λ2 > λ3)",
		Header: []string{"step", "query", "pipelines", "F", "T", "P", "U", "invariants"},
	}
	for i, spec := range specs {
		stored, err := fab.InsertQuery(spec.q, stream.NewCollector())
		if err != nil {
			return nil, err
		}
		counts := fab.OperatorCounts()
		inv := "ok"
		if err := fab.CheckInvariants(); err != nil {
			inv = err.Error()
		}
		tab.AddRow(
			fmt.Sprintf("insert %d", i+1),
			fmt.Sprintf("%s(%s@%g)", stored.ID, stored.Attr, stored.Rate),
			fmt.Sprintf("%d", fab.NumPipelines()),
			fmt.Sprintf("%d", counts["F"]),
			fmt.Sprintf("%d", counts["T"]),
			fmt.Sprintf("%d", counts["P"]),
			fmt.Sprintf("%d", counts["U"]),
			inv,
		)
	}
	// Deletion walkthrough: delete Q1 as the paper describes.
	if err := fab.DeleteQuery("Q1"); err != nil {
		return nil, err
	}
	counts := fab.OperatorCounts()
	inv := "ok"
	if err := fab.CheckInvariants(); err != nil {
		inv = err.Error()
	}
	tab.AddRow("delete Q1", "-", fmt.Sprintf("%d", fab.NumPipelines()),
		fmt.Sprintf("%d", counts["F"]), fmt.Sprintf("%d", counts["T"]),
		fmt.Sprintf("%d", counts["P"]), fmt.Sprintf("%d", counts["U"]), inv)
	for _, line := range strings.Split(strings.TrimSpace(fab.Render()), "\n") {
		tab.AddNote("%s", line)
	}
	return tab, nil
}

// E2Thin sweeps the thinning ratio λ2/λ1 and reports the measured output
// rate against λ2 — the paper's "desired rate λ2" claim.
func E2Thin(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := stats.NewRNG(o.Seed)
	tab := &Table{
		ID:     "E2",
		Title:  "Thin: measured output rate vs desired λ2 (λ1 = 200)",
		Header: []string{"λ2/λ1", "λ2", "measured", "stderr", "ratio"},
	}
	region := geom.NewRect(0, 0, 4, 4)
	w := geom.Window{T0: 0, T1: 2, Rect: region}
	trials := o.trials(30, 6)
	proc, err := mdpp.NewHomogeneous(200, region)
	if err != nil {
		return nil, err
	}
	for _, ratio := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		lambda2 := 200 * ratio
		th, err := pmat.NewThin("t", 200, lambda2, rng.Fork())
		if err != nil {
			return nil, err
		}
		var s stats.Summary
		for trial := 0; trial < trials; trial++ {
			ev, err := proc.Sample(w, rng)
			if err != nil {
				return nil, err
			}
			kept := thinSurvivors(th, batchFromEvents("temp", w, ev).Tuples)
			s.Add(float64(len(kept)) / w.Volume())
		}
		tab.AddRow(
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.1f", lambda2),
			fmt.Sprintf("%.2f", s.Mean()),
			fmt.Sprintf("%.2f", s.StdErr()),
			fmt.Sprintf("%.4f", s.Mean()/lambda2),
		)
	}
	tab.AddNote("claim: ratio ≈ 1.0 across the sweep (paper §IV.B.1, Thin)")
	return tab, nil
}

// E3FlattenHomogenize measures Flatten's homogenization quality: chi-square
// spatial-uniformity p-values before and after flattening a hotspot-skewed
// process, at increasing batch sizes, and the output-rate error.
func E3FlattenHomogenize(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := stats.NewRNG(o.Seed)
	tab := &Table{
		ID:     "E3",
		Title:  "Flatten: homogenization of a hotspot-skewed MDPP",
		Header: []string{"batch", "p_before", "p_after", "rate_err%", "N_v%"},
	}
	region := geom.NewRect(0, 0, 6, 6)
	hot, err := intensity.NewHotspot(4, 80, 2, 2, 1.0)
	if err != nil {
		return nil, err
	}
	durations := []float64{0.5, 1, 2, 4}
	if o.Quick {
		durations = []float64{0.5, 2}
	}
	for _, dur := range durations {
		w := geom.Window{T0: 0, T1: dur, Rect: region}
		proc, err := mdpp.NewInhomogeneous(hot, region)
		if err != nil {
			return nil, err
		}
		ev, err := proc.Sample(w, rng)
		if err != nil {
			return nil, err
		}
		b := batchFromEvents("rain", w, ev)
		target := 0.3 * b.MeasuredRate()
		gin, err := mdpp.SpatialCounts(ev, w, 3, 3)
		if err != nil {
			return nil, err
		}
		pBefore, err := gin.UniformityPValue()
		if err != nil {
			return nil, err
		}
		fl, err := pmat.NewFlatten("f", pmat.FlattenConfig{TargetRate: target, Mode: pmat.EstimatorKnown, Known: hot}, rng.Fork())
		if err != nil {
			return nil, err
		}
		out, err := flattenSurvivors(fl, b)
		if err != nil {
			return nil, err
		}
		gout, err := stats.NewGrid2D(0, 6, 0, 6, 3, 3)
		if err != nil {
			return nil, err
		}
		for _, tp := range out.Tuples {
			gout.Add(tp.X, tp.Y)
		}
		pAfter, err := gout.UniformityPValue()
		if err != nil {
			return nil, err
		}
		outRate := out.MeasuredRate()
		tab.AddRow(
			fmt.Sprintf("%d", b.Len()),
			fmt.Sprintf("%.2g", pBefore),
			fmt.Sprintf("%.3f", pAfter),
			fmt.Sprintf("%.1f", 100*absf(outRate-target)/target),
			fmt.Sprintf("%.1f", fl.LastReport().Percent),
		)
	}
	tab.AddNote("claim: p_before ≈ 0 (skewed), p_after ≥ 0.01 (approximately homogeneous)")
	return tab, nil
}

// E4FlattenViolations sweeps the requested rate past the feasible supply and
// reports the percent rate violation N_v, the signal budget tuning consumes.
func E4FlattenViolations(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := stats.NewRNG(o.Seed)
	tab := &Table{
		ID:     "E4",
		Title:  "Flatten: N_v vs requested rate multiple of supply",
		Header: []string{"λ̄/supply", "N_v%", "out_rate/target"},
	}
	region := geom.NewRect(0, 0, 6, 6)
	hot, err := intensity.NewHotspot(4, 60, 2, 2, 1.0)
	if err != nil {
		return nil, err
	}
	w := geom.Window{T0: 0, T1: 2, Rect: region}
	proc, err := mdpp.NewInhomogeneous(hot, region)
	if err != nil {
		return nil, err
	}
	ev, err := proc.Sample(w, rng)
	if err != nil {
		return nil, err
	}
	b := batchFromEvents("rain", w, ev)
	supply := b.MeasuredRate()
	keep := make([]bool, b.Len())
	for _, mult := range []float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0} {
		fl, err := pmat.NewFlatten("f", pmat.FlattenConfig{TargetRate: mult * supply, Mode: pmat.EstimatorKnown, Known: hot}, rng.Fork())
		if err != nil {
			return nil, err
		}
		kept, err := fl.ProcessFused(b, keep)
		if err != nil {
			return nil, err
		}
		rep := fl.LastReport()
		tab.AddRow(
			fmt.Sprintf("%.2f", mult),
			fmt.Sprintf("%.1f", rep.Percent),
			fmt.Sprintf("%.2f", (float64(kept)/w.Volume())/(mult*supply)),
		)
	}
	tab.AddNote("claim: N_v grows once λ̄ approaches supply; output saturates below target (paper §IV.B.1)")
	return tab, nil
}

// E5PartitionUnion runs the P- and U-operators where the daemon runs them,
// in a fabricator's compiled epoch program, and checks that they preserve
// the rate and lose nothing. A homogeneous process at supply 120 covers a
// k×1 strip of grid cells. At rate λ = 60 three kinds of query read it: one
// over the whole strip, whose k leaves one U-operator merges; one that stops
// half a cell short of either end, so P-operators clip its end cells; and
// one per cell. The per-cell queries tap the same T-operators but need
// neither P nor U, so their streams are the survivors the merged and the
// clipped streams are checked against, tuple by tuple.
func E5PartitionUnion(o Options) (*Table, error) {
	o = o.withDefaults()
	const supply, lambda = 120.0, 60.0
	tab := &Table{
		ID:     "E5",
		Title:  "Partition and Union in the epoch program: rate preservation (supply 120, λ = 60)",
		Header: []string{"k", "branch_rate/λ", "union_rate/λ", "tuples_lost", "clip_rate/λ"},
	}
	ks := []int{2, 4, 8, 16}
	if o.Quick {
		ks = []int{2, 4}
	}
	epochs := o.trials(20, 5)
	for _, k := range ks {
		side := float64(k)
		grid, err := geom.NewGrid(geom.NewRect(0, 0, side, side), k*k)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(o.Seed)
		fab, err := topology.New(grid, topology.Config{}, rng.Fork())
		if err != nil {
			return nil, err
		}
		strip := geom.NewRect(0, 0, side, 1)
		clipped := geom.NewRect(0.5, 0, side-0.5, 1)
		insert := func(region geom.Rect) (*stream.Collector, error) {
			col := stream.NewCollector()
			_, err := fab.InsertQuery(query.Query{Attr: "temp", Region: region, Rate: lambda}, col)
			return col, err
		}
		union, err := insert(strip)
		if err != nil {
			return nil, err
		}
		clip, err := insert(clipped)
		if err != nil {
			return nil, err
		}
		cells := make([]*stream.Collector, k)
		for i := range cells {
			if cells[i], err = insert(geom.NewRect(float64(i), 0, float64(i+1), 1)); err != nil {
				return nil, err
			}
		}
		proc, err := mdpp.NewHomogeneous(supply, strip)
		if err != nil {
			return nil, err
		}
		var id uint64
		for e := 0; e < epochs; e++ {
			w := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: strip}
			ev, err := proc.Sample(w, rng)
			if err != nil {
				return nil, err
			}
			b := stream.Batch{Attr: "temp", Window: w}
			for _, x := range ev {
				id++
				b.Tuples = append(b.Tuples, stream.Tuple{ID: id, Attr: "temp", T: x.T, X: x.X, Y: x.Y})
			}
			if err := fab.Ingest(b); err != nil {
				return nil, err
			}
		}
		var survivors, inClip []stream.Tuple
		var branchRate stats.Summary
		for _, col := range cells {
			tuples := col.Tuples()
			branchRate.Add(float64(len(tuples)) / float64(epochs)) // unit cells
			survivors = append(survivors, tuples...)
			for _, tp := range tuples {
				if clipped.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
					inClip = append(inClip, tp)
				}
			}
		}
		lostU, err := lost(survivors, union.Tuples())
		if err != nil {
			return nil, fmt.Errorf("E5: k=%d: strip query: %w", k, err)
		}
		lostP, err := lost(inClip, clip.Tuples())
		if err != nil {
			return nil, fmt.Errorf("E5: k=%d: clipped query: %w", k, err)
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", branchRate.Mean()/lambda),
			fmt.Sprintf("%.3f", float64(union.Len())/(float64(epochs)*strip.Area())/lambda),
			fmt.Sprintf("%d", lostU+lostP),
			fmt.Sprintf("%.3f", float64(clip.Len())/(float64(epochs)*clipped.Area())/lambda),
		)
	}
	tab.AddNote("claim: all three ratios ≈ 1.0 and no tuples lost (P routes, U merges; paper §IV.B.1)")
	tab.AddNote("F and T draw before P and U, so each ratio carries their sampling noise")
	return tab, nil
}

// lost counts the survivors missing from a delivered stream. The stream must
// hold only survivors, in (T, ID) order.
func lost(survivors, delivered []stream.Tuple) (int, error) {
	want := make(map[uint64]bool, len(survivors))
	for _, tp := range survivors {
		want[tp.ID] = true
	}
	for i, tp := range delivered {
		if !want[tp.ID] {
			return 0, fmt.Errorf("delivered tuple %d is no survivor", tp.ID)
		}
		delete(want, tp.ID)
		if i > 0 && stream.CompareTuples(delivered[i-1], tp) >= 0 {
			return 0, fmt.Errorf("delivered tuple %d out of (T, ID) order", tp.ID)
		}
	}
	return len(want), nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
