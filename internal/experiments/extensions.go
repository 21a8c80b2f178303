package experiments

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/incentive"
	"repro/internal/mobility"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/server"
	"repro/internal/stats"
)

// E11Incentives evaluates the Section VI incentive extension: with a
// low-willingness fleet, how much does an incentive budget reduce violation
// pressure, and does the greedy allocator beat uniform splitting?
func E11Incentives(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E11",
		Title:  "Incentives: violation pressure vs incentive budget (reluctant fleet)",
		Header: []string{"incentive", "policy", "steady_Nv%", "resp_frac"},
	}
	epochs := o.trials(40, 10)
	model := sensors.ResponseModel{BaseProb: 0.15, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0.02}
	run := func(total float64, uniform bool) (float64, float64, error) {
		cfg := engineConfig(o.Seed, 400, 5)
		cfg.Fleet.Response = model
		// Hotspot mobility skews the violation pressure across cells, which
		// is the regime where targeted (greedy) allocation can beat a
		// uniform split.
		cfg.Fleet.Hotspots = []mobility.Hotspot{
			{Center: geom.Point{X: 2, Y: 2}, Sigma: 1, Weight: 4},
			{Center: geom.Point{X: 6, Y: 6}, Sigma: 1.5, Weight: 1},
		}
		cfg.Fleet.UniformFraction = 0.15
		cfg.Fleet.Dwell = 3
		if total > 0 {
			alloc, err := incentive.NewAllocator(model, total, 0.25)
			if err != nil {
				return 0, 0, err
			}
			cfg.Incentives = alloc
			_ = uniform // uniform handled below by swapping the reallocation
		}
		fields, err := engineFields()
		if err != nil {
			return 0, 0, err
		}
		e, err := server.New(cfg, fields)
		if err != nil {
			return 0, 0, err
		}
		if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
			return 0, 0, err
		}
		var nv stats.Summary
		for epoch := 0; epoch < epochs; epoch++ {
			if err := e.Step(); err != nil {
				return 0, 0, err
			}
			if total > 0 && uniform {
				// Override the engine's greedy reallocation with uniform.
				cfg.Incentives.UniformAllocate()
			}
			if epoch >= epochs/2 {
				nv.Add(meanLastNv(e.Budgets().Snapshots()))
			}
		}
		respFrac := float64(e.Handler().ResponsesReceived()) / float64(e.Handler().RequestsSent())
		return nv.Mean(), respFrac, nil
	}
	cases := []struct {
		total   float64
		uniform bool
		label   string
	}{
		{0, false, "none"},
		{40, true, "uniform"},
		{40, false, "greedy"},
		{120, false, "greedy"},
	}
	if o.Quick {
		cases = cases[:3]
	}
	for _, c := range cases {
		nv, resp, err := run(c.total, c.uniform)
		if err != nil {
			return nil, err
		}
		tab.AddRow(
			fmt.Sprintf("%.0f", c.total),
			c.label,
			fmt.Sprintf("%.1f", nv),
			fmt.Sprintf("%.2f", resp),
		)
	}
	tab.AddNote("claim: incentives raise response fraction and cut violations (paper §VI)")
	tab.AddNote("note: greedy ≈ uniform here because starved cells saturate at similar pressure; greedy's")
	tab.AddNote("strict optimality under heterogeneous pressure is verified directly in incentive unit tests")
	return tab, nil
}

// E13TChainOrder ablates the paper's descending shared T-chain against the
// unshared alternative (every query thins independently from the
// F-operator): Bernoulli draws per delivered tuple.
func E13TChainOrder(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E13",
		Title:  "T-operator organization: shared descending chain vs independent thinning",
		Header: []string{"k", "chain_draws", "star_draws", "saving", "rate_dev%"},
	}
	region := geom.NewRect(0, 0, 4, 4)
	inputRate := 400.0
	epochs := o.trials(30, 6)
	ks := []int{2, 4, 8}
	if o.Quick {
		ks = []int{2, 4}
	}
	for _, k := range ks {
		rates := make([]float64, k)
		for i := range rates {
			rates[i] = inputRate / float64(int(2)<<i) // 200, 100, 50, …
		}
		rng := stats.NewRNG(o.Seed)
		// Shared descending chain: stage i thins what stage i−1 kept.
		chainThins := make([]*pmat.Thin, k)
		prev := inputRate
		for i, r := range rates {
			th, err := pmat.NewThin(fmt.Sprintf("c%d", i), prev, r, rng.Fork())
			if err != nil {
				return nil, err
			}
			chainThins[i] = th
			prev = r
		}
		// Independent ("star") thinning: each query reads the full stream.
		starThins := make([]*pmat.Thin, k)
		for i, r := range rates {
			th, err := pmat.NewThin(fmt.Sprintf("s%d", i), inputRate, r, rng.Fork())
			if err != nil {
				return nil, err
			}
			starThins[i] = th
		}
		srcRNG := stats.NewRNG(o.Seed + 9)
		var chainDev stats.Summary
		for e := 0; e < epochs; e++ {
			we := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: region}
			b := uniformBatch("temp", we, inputRate, srcRNG)
			kept := b.Tuples
			for i, th := range chainThins {
				kept = thinSurvivors(th, kept)
				chainDev.Add(100 * absf(float64(len(kept))/we.Volume()-rates[i]) / rates[i])
			}
			for _, th := range starThins {
				thinSurvivors(th, b.Tuples)
			}
		}
		var chainDraws, starDraws uint64
		for i := 0; i < k; i++ {
			chainDraws += chainThins[i].Stats().RandomDraws
			starDraws += starThins[i].Stats().RandomDraws
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", chainDraws),
			fmt.Sprintf("%d", starDraws),
			fmt.Sprintf("%.2fx", float64(starDraws)/float64(chainDraws)),
			fmt.Sprintf("%.1f", chainDev.Mean()),
		)
	}
	tab.AddNote("claim: the shared descending chain does strictly less probabilistic work at equal delivered rates (paper §V.A insertion rules)")
	return tab, nil
}

// E14GPSError injects GPS noise into reported positions and measures how
// many tuples land in the wrong grid cell and how the delivered rate in a
// query region degrades — the Section VI error-handling concern.
func E14GPSError(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E14",
		Title:  "GPS error: mis-cell fraction and query-region rate error (cell side 2)",
		Header: []string{"gps_σ", "wrong_cell%", "rate_err%"},
	}
	epochs := o.trials(25, 6)
	sigmas := []float64{0, 0.1, 0.25, 0.5, 1.0}
	if o.Quick {
		sigmas = []float64{0, 0.5}
	}
	for _, sigma := range sigmas {
		cfg := engineConfig(o.Seed, 600, 5)
		cfg.Fleet.GPSStd = sigma
		fields, err := engineFields()
		if err != nil {
			return nil, err
		}
		e, err := server.New(cfg, fields)
		if err != nil {
			return nil, err
		}
		queryRegion := geom.NewRect(0, 0, 4, 4)
		q, err := e.Submit(query.Query{Attr: "temp", Region: queryRegion, Rate: 3})
		if err != nil {
			return nil, err
		}
		if err := e.Run(epochs); err != nil {
			return nil, err
		}
		tuples, err := e.Results(q.ID)
		if err != nil {
			return nil, err
		}
		deliveredRate := float64(len(tuples)) / (float64(epochs) * queryRegion.Area())
		// Wrong-cell fraction is estimated geometrically: a point uniform in
		// a cell whose reported position is offset by N(0, σ) lands outside
		// with probability measured by simulation here.
		grid := e.Grid()
		rng := stats.NewRNG(o.Seed + 31)
		wrong := 0
		const samples = 20000
		for i := 0; i < samples; i++ {
			p := geom.Point{X: rng.Uniform(0, 8), Y: rng.Uniform(0, 8)}
			truth, ok1 := grid.CellAt(p)
			rep := geom.Point{X: p.X + rng.Normal(0, sigma), Y: p.Y + rng.Normal(0, sigma)}
			seen, ok2 := grid.CellAt(rep)
			if !ok1 || !ok2 || truth != seen {
				wrong++
			}
		}
		tab.AddRow(
			fmt.Sprintf("%.2f", sigma),
			fmt.Sprintf("%.1f", 100*float64(wrong)/samples),
			fmt.Sprintf("%.1f", 100*absf(deliveredRate-3)/3),
		)
	}
	tab.AddNote("claim: GPS noise mis-assigns tuples to cells roughly ∝ σ/cell-side (paper §VI handling errors);")
	tab.AddNote("end-to-end rate error is dominated by budget warm-up, so mis-assignment is the primary observable")
	return tab, nil
}
