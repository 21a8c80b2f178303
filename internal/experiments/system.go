package experiments

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
)

// engineConfig builds a standard small-world engine config for closed-loop
// experiments.
func engineConfig(seed int64, fleetN int, delta float64) server.Config {
	return server.Config{
		Region:    geom.NewRect(0, 0, 8, 8),
		GridCells: 16,
		Epoch:     1,
		Budget:    budget.Config{Initial: 10, Delta: delta, Min: 2, Max: 400, ViolationThreshold: 10},
		Fleet: sensors.FleetConfig{
			N:        fleetN,
			Response: sensors.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed: seed,
	}
}

func engineFields() (map[string]sensors.Field, error) {
	rain, err := sensors.NewRainField(geom.NewRect(0, 0, 8, 8), []sensors.Storm{{X0: 2, Y0: 2, VX: 0.2, VY: 0.1, Radius: 2}})
	if err != nil {
		return nil, err
	}
	temp, err := sensors.NewTempField(20, 0.2, -0.1, 3, 24, 0, nil)
	if err != nil {
		return nil, err
	}
	return map[string]sensors.Field{"rain": rain, "temp": temp}, nil
}

// meanLastNv averages the latest N_v over all budget slots.
func meanLastNv(snaps []budget.Snapshot) float64 {
	if len(snaps) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range snaps {
		total += s.LastNv
	}
	return total / float64(len(snaps))
}

// E6BudgetTuning runs the full closed loop (sensors → handler → flatten →
// N_v → budget controller) and reports, per Δβ, how fast the mean violation
// pressure falls under the threshold and where budgets settle.
func E6BudgetTuning(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E6",
		Title:  "Budget tuning: convergence of the ±Δβ feedback loop (threshold 10%)",
		Header: []string{"Δβ", "epochs_to_ok", "steady_Nv%", "steady_budget", "requests/epoch"},
	}
	epochs := o.trials(60, 15)
	deltas := []float64{2, 5, 10, 20}
	if o.Quick {
		deltas = []float64{5, 20}
	}
	for _, delta := range deltas {
		fields, err := engineFields()
		if err != nil {
			return nil, err
		}
		e, err := server.New(engineConfig(o.Seed, 500, delta), fields)
		if err != nil {
			return nil, err
		}
		if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 4}); err != nil {
			return nil, err
		}
		converged := -1
		var steadyNv, steadyBudget stats.Summary
		for epoch := 0; epoch < epochs; epoch++ {
			if err := e.Step(); err != nil {
				return nil, err
			}
			nv := meanLastNv(e.Budgets().Snapshots())
			if converged < 0 && nv <= 10 {
				converged = epoch + 1
			}
			if epoch >= epochs/2 {
				steadyNv.Add(nv)
				steadyBudget.Add(e.Budgets().TotalBudget())
			}
		}
		convStr := "never"
		if converged >= 0 {
			convStr = fmt.Sprintf("%d", converged)
		}
		tab.AddRow(
			fmt.Sprintf("%.0f", delta),
			convStr,
			fmt.Sprintf("%.1f", steadyNv.Mean()),
			fmt.Sprintf("%.0f", steadyBudget.Mean()),
			fmt.Sprintf("%.0f", float64(e.Handler().RequestsSent())/float64(epochs)),
		)
	}
	tab.AddNote("claim: larger Δβ converges faster but overshoots budget (paper §V Budget Tuning)")
	return tab, nil
}

// uniformBatch generates a uniform raw batch over the grid region.
func uniformBatch(attr string, w geom.Window, rate float64, rng *stats.RNG) stream.Batch {
	n := rng.Poisson(rate * w.Volume())
	b := stream.Batch{Attr: attr, Window: w}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{
			ID:   uint64(i + 1),
			Attr: attr,
			T:    rng.Uniform(w.T0, w.T1),
			X:    rng.Uniform(w.Rect.MinX, w.Rect.MaxX),
			Y:    rng.Uniform(w.Rect.MinY, w.Rect.MaxY),
		})
	}
	return b
}

// E7SharedVsNaive compares the shared execution topology against the naive
// strategy of processing each query from scratch, for k same-attribute
// queries over the same region. Cost is the total number of tuples entering
// operators and the total Bernoulli draws.
func E7SharedVsNaive(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E7",
		Title:  "Multi-query sharing: shared topology vs naive per-query processing",
		Header: []string{"k", "shared_tuples", "naive_tuples", "saving", "shared_draws", "naive_draws"},
	}
	grid, err := fig2Grid()
	if err != nil {
		return nil, err
	}
	epochs := o.trials(20, 5)
	ks := []int{1, 2, 4, 8, 16}
	if o.Quick {
		ks = []int{2, 8}
	}
	for _, k := range ks {
		queries := make([]query.Query, k)
		for i := 0; i < k; i++ {
			queries[i] = query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 40 / float64(i+1)}
		}
		run := func(shared bool) (uint64, uint64, error) {
			var fabs []*topology.Fabricator
			if shared {
				f, err := topology.New(grid, topology.Config{}, stats.NewRNG(o.Seed))
				if err != nil {
					return 0, 0, err
				}
				for _, q := range queries {
					if _, err := f.InsertQuery(q, stream.NewCollector()); err != nil {
						return 0, 0, err
					}
				}
				fabs = []*topology.Fabricator{f}
			} else {
				for i, q := range queries {
					f, err := topology.New(grid, topology.Config{}, stats.NewRNG(o.Seed+int64(i)))
					if err != nil {
						return 0, 0, err
					}
					if _, err := f.InsertQuery(q, stream.NewCollector()); err != nil {
						return 0, 0, err
					}
					fabs = append(fabs, f)
				}
			}
			rng := stats.NewRNG(o.Seed + 100)
			for e := 0; e < epochs; e++ {
				w := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: grid.Region()}
				b := uniformBatch("rain", w, 60, rng)
				for _, f := range fabs {
					if err := f.Ingest(b); err != nil {
						return 0, 0, err
					}
				}
			}
			var tuples, draws uint64
			for _, f := range fabs {
				fl := f.TotalFlow()
				tuples += fl.TuplesIn
				draws += fl.RandomDraws
			}
			return tuples, draws, nil
		}
		sharedTuples, sharedDraws, err := run(true)
		if err != nil {
			return nil, err
		}
		naiveTuples, naiveDraws, err := run(false)
		if err != nil {
			return nil, err
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", sharedTuples),
			fmt.Sprintf("%d", naiveTuples),
			fmt.Sprintf("%.2fx", float64(naiveTuples)/float64(sharedTuples)),
			fmt.Sprintf("%d", sharedDraws),
			fmt.Sprintf("%d", naiveDraws),
		)
	}
	tab.AddNote("claim: naive cost grows ~linearly in k while shared re-uses data (paper §III, [10])")
	return tab, nil
}

// E8Throughput measures end-to-end fabrication throughput (tuples ingested
// per second through the map/process/merge phases) as the number of
// concurrent queries and the grid resolution grow.
func E8Throughput(o Options) (*Table, error) {
	o = o.withDefaults()
	tab := &Table{
		ID:     "E8",
		Title:  "Fabricator throughput (uniform raw stream at rate 80)",
		Header: []string{"h", "queries", "tuples/s", "tuples_in"},
	}
	epochs := o.trials(30, 6)
	cases := []struct{ h, k int }{{9, 1}, {9, 8}, {36, 8}, {36, 32}, {144, 32}}
	if o.Quick {
		cases = []struct{ h, k int }{{9, 4}, {36, 8}}
	}
	for _, c := range cases {
		grid, err := geom.NewGrid(geom.NewRect(0, 0, 12, 12), c.h)
		if err != nil {
			return nil, err
		}
		fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(o.Seed))
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(o.Seed + 7)
		side := grid.Side()
		cw := grid.Region().Width() / float64(side)
		for i := 0; i < c.k; i++ {
			// Queries on random 2×1-cell aligned regions.
			q0 := rng.Intn(side - 1)
			r0 := rng.Intn(side)
			region := geom.NewRect(float64(q0)*cw, float64(r0)*cw, float64(q0+2)*cw, float64(r0+1)*cw)
			if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: region, Rate: 1 + rng.Float64()*20}, stream.NewCollector()); err != nil {
				return nil, err
			}
		}
		var total uint64
		start := time.Now()
		for e := 0; e < epochs; e++ {
			w := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: grid.Region()}
			b := uniformBatch("rain", w, 80, rng)
			total += uint64(b.Len())
			if err := fab.Ingest(b); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start).Seconds()
		tab.AddRow(
			fmt.Sprintf("%d", c.h),
			fmt.Sprintf("%d", c.k),
			fmt.Sprintf("%.0f", float64(total)/elapsed),
			fmt.Sprintf("%d", total),
		)
	}
	tab.AddNote("shape: throughput degrades gracefully with h and query count")
	return tab, nil
}

// E9Estimation compares batch MLE and online SGD recovery of the Eq. (1)
// parameters as the sample grows.
func E9Estimation(o Options) (*Table, error) {
	o = o.withDefaults()
	rng := stats.NewRNG(o.Seed)
	tab := &Table{
		ID:     "E9",
		Title:  "Eq. (1) parameter recovery: batch MLE vs online SGD",
		Header: []string{"events", "mle_err", "sgd_err", "mle_µs", "sgd_µs"},
	}
	truth := intensity.Theta{10, 0.4, -0.5, 0.6}
	durations := []float64{0.25, 1, 4, 16}
	if o.Quick {
		durations = []float64{0.25, 4}
	}
	region := geom.NewRect(0, 0, 8, 8)
	proc, err := mdpp.NewInhomogeneous(intensity.NewLinear(truth), region)
	if err != nil {
		return nil, err
	}
	for _, dur := range durations {
		w := geom.Window{T0: 0, T1: dur, Rect: region}
		ev, err := proc.Sample(w, rng)
		if err != nil {
			return nil, err
		}
		startMLE := time.Now()
		res, err := estimate.FitMLE(ev, w)
		if err != nil {
			return nil, err
		}
		mleTime := time.Since(startMLE)
		startSGD := time.Now()
		sgdTheta, err := estimate.FitSGD(ev, w, 16, 10)
		if err != nil {
			return nil, err
		}
		sgdTime := time.Since(startSGD)
		tab.AddRow(
			fmt.Sprintf("%d", len(ev)),
			fmt.Sprintf("%.4f", estimate.RelativeError(res.Theta, truth)),
			fmt.Sprintf("%.4f", estimate.RelativeError(sgdTheta, truth)),
			fmt.Sprintf("%d", mleTime.Microseconds()),
			fmt.Sprintf("%d", sgdTime.Microseconds()),
		)
	}
	tab.AddNote("claim: MLE error shrinks with data; SGD tracks within a constant factor (paper §III.A, [12][13])")
	return tab, nil
}

// E10QueryChurn stresses query insertion/deletion and reports per-operation
// latency with invariants checked at every step.
func E10QueryChurn(o Options) (*Table, error) {
	o = o.withDefaults()
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		return nil, err
	}
	fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(o.Seed))
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(o.Seed + 3)
	ops := o.trials(600, 80)
	var live []string
	var insertTime, deleteTime stats.Summary
	checkEvery := 10
	for step := 0; step < ops; step++ {
		if len(live) == 0 || rng.Float64() < 0.55 {
			q0 := rng.Intn(3)
			r0 := rng.Intn(3)
			wc := 1 + rng.Intn(2)
			region := geom.NewRect(float64(q0*2), float64(r0*2), float64((q0+wc)*2), float64((r0+1)*2))
			attr := "rain"
			if rng.Float64() < 0.5 {
				attr = "temp"
			}
			start := time.Now()
			stored, err := fab.InsertQuery(query.Query{Attr: attr, Region: region, Rate: 1 + rng.Float64()*80}, stream.NewCollector())
			if err != nil {
				return nil, err
			}
			insertTime.Add(float64(time.Since(start).Microseconds()))
			live = append(live, stored.ID)
		} else {
			idx := rng.Intn(len(live))
			start := time.Now()
			if err := fab.DeleteQuery(live[idx]); err != nil {
				return nil, err
			}
			deleteTime.Add(float64(time.Since(start).Microseconds()))
			live = append(live[:idx], live[idx+1:]...)
		}
		if step%checkEvery == 0 {
			if err := fab.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("invariant violated at step %d: %w", step, err)
			}
		}
	}
	tab := &Table{
		ID:     "E10",
		Title:  "Query churn: insert/delete latency with invariants checked",
		Header: []string{"ops", "live_end", "insert_µs(avg)", "delete_µs(avg)", "invariants"},
	}
	tab.AddRow(
		fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", len(live)),
		fmt.Sprintf("%.1f", insertTime.Mean()),
		fmt.Sprintf("%.1f", deleteTime.Mean()),
		"ok",
	)
	tab.AddNote("claim: insertion/deletion are cheap local operations on the hashmap of topologies (paper §V.A)")
	return tab, nil
}
