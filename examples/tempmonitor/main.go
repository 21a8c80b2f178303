// Ambient temperature monitoring: the paper's second running example. The
// acquired stream is sensor-sensed (real-valued), and this example also
// demonstrates the PMAT operators standalone: the fabricated stream is fed
// into an extra Thin operator to derive a coarser secondary stream, and the
// Eq. (1) MLE recovers the arrival-intensity parameters from raw tuples.
//
// It closes with a budget-convergence A/B: the same over-demanding query is
// run on a static-rate engine and on one with adaptive rate retuning
// (EngineConfig.AdaptiveRates) — the adaptive engine converges starved
// cells toward their feasible rate, so its mean normalized violation falls
// below the static run's.
package main

import (
	"fmt"
	"log"

	craqr "repro"
)

func main() {
	region := craqr.NewRect(0, 0, 8, 8)
	// Temperature: west-east gradient plus a diurnal cycle and sensor noise.
	temp, err := craqr.NewTempField(18, 0.5, -0.2, 5, 24, 0.3, craqr.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}

	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 12, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N: 500,
			Hotspots: []craqr.MobilityHotspot{
				{Center: craqr.Point{X: 6, Y: 2}, Sigma: 1.5, Weight: 1},
			},
			UniformFraction: 0.4,
			Response:        craqr.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed: 11,
	}, map[string]craqr.Field{"temp": temp})
	if err != nil {
		log.Fatal(err)
	}

	q, err := engine.Submit(craqr.Query{Attr: "temp", Region: craqr.NewRect(0, 0, 8, 4), Rate: 3})
	if err != nil {
		log.Fatal(err)
	}
	const epochs = 48 // two simulated days
	if err := engine.Run(epochs); err != nil {
		log.Fatal(err)
	}
	tuples, err := engine.Results(q.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acquired %d temperature tuples (%.2f /unit-area/epoch, requested %g)\n",
		len(tuples), float64(len(tuples))/(epochs*q.Region.Area()), q.Rate)

	// Hourly means reveal the diurnal cycle from the fabricated stream.
	fmt.Println("\nmean temperature by 6-epoch window:")
	for w0 := 0; w0 < epochs; w0 += 6 {
		sum, n := 0.0, 0
		for _, tp := range tuples {
			if tp.T >= float64(w0) && tp.T < float64(w0+6) {
				sum += tp.Value
				n++
			}
		}
		if n > 0 {
			fmt.Printf("  t∈[%2d,%2d): %6.2f°  (%d samples)\n", w0, w0+6, sum/float64(n), n)
		}
	}

	// Standalone PMAT usage: derive a half-rate stream with a Thin operator.
	thin, err := craqr.NewThin("derived", q.Rate, q.Rate/2, craqr.NewRNG(5))
	if err != nil {
		log.Fatal(err)
	}
	// Its kernel, as the engine runs it: one biased coin per tuple.
	p, rng := thin.BeginFused()
	kept := 0
	for range tuples {
		if rng.Bernoulli(p) {
			kept++
		}
	}
	thin.EndFused(len(tuples), kept)
	fmt.Printf("\nderived half-rate stream via Thin: %d of %d tuples (keep prob %.2f)\n",
		thin.Stats().TuplesOut, len(tuples), thin.Probability())

	// Fit the paper's Eq. (1) intensity to the acquired arrivals.
	events := make([]craqr.Event, len(tuples))
	for i, tp := range tuples {
		events[i] = craqr.Event{T: tp.T, X: tp.X, Y: tp.Y}
	}
	theta, err := craqr.FitMLE(events, craqr.NewWindow(0, epochs, q.Region))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MLE of fabricated-stream intensity θ = (%.3f, %.4f, %.4f, %.4f)\n", theta[0], theta[1], theta[2], theta[3])
	mid := craqr.NewLinearIntensity(theta).Eval(epochs/2, 4, 2)
	fmt.Printf("(fitted rate at the window center: %.2f ≈ the delivered rate; small slopes mean the stream is near-homogeneous)\n", mid)

	// Budget convergence: demand far more than the fleet can deliver, then
	// compare a static-rate run against adaptive rate retuning on the same
	// seed. The adaptive engine lowers starved cells' target rates toward
	// the feasible rate (the paper's "accept the feasible rate"), so its
	// violation alarms quiet down while the static engine keeps alarming.
	fmt.Println("\nbudget convergence on an over-demanding query (rate 5, sparse fleet):")
	meanNv := func(adaptive bool) float64 {
		world, err := craqr.NewTempField(18, 0.5, -0.2, 5, 24, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		cfg := craqr.EngineConfig{
			Region:    region,
			GridCells: 16,
			Epoch:     1,
			Budget:    craqr.BudgetConfig{Initial: 12, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
			Fleet: craqr.FleetConfig{
				N:        300,
				Response: craqr.ResponseModel{BaseProb: 0.7, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0.02},
			},
			Seed:          11,
			AdaptiveRates: adaptive,
		}
		ab, err := craqr.NewEngine(cfg, map[string]craqr.Field{"temp": world})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := ab.SubmitCRAQL("ACQUIRE temp FROM RECT(0, 0, 8, 8) RATE 5"); err != nil {
			log.Fatal(err)
		}
		if err := ab.Run(30); err != nil {
			log.Fatal(err)
		}
		return ab.MeanViolation()
	}
	static, adaptive := meanNv(false), meanNv(true)
	fmt.Printf("  static rates:   mean N_v = %5.1f%%\n", static)
	fmt.Printf("  adaptive rates: mean N_v = %5.1f%%  (converged toward the feasible rate)\n", adaptive)
}
