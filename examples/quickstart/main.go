// Quickstart: acquire a crowdsensed rain stream at a fixed spatio-temporal
// rate with ten lines of setup — the paper's Q⟨1⟩ example ("acquire the
// attribute rain from region R′ at the rate of 10 /km²/min").
package main

import (
	"fmt"
	"log"

	craqr "repro"
)

func main() {
	region := craqr.NewRect(0, 0, 8, 8)

	// Ground truth: a storm drifting across the region.
	rain, err := craqr.NewRainField(region, []craqr.Storm{{X0: 2, Y0: 2, VX: 0.2, VY: 0.1, Radius: 2}})
	if err != nil {
		log.Fatal(err)
	}

	// A CrAQR engine: 4×4 grid, 400 mobile sensors, tuned budgets.
	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        400,
			Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.05},
		},
		Seed: 42,
	}, map[string]craqr.Field{"rain": rain})
	if err != nil {
		log.Fatal(err)
	}

	// EXPLAIN prices the query without submitting anything — the same table
	// `craqr-plan` and the HTTP plan endpoint serve.
	ex, err := engine.Explain("EXPLAIN ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ex.Table())

	// The declarative acquisitional query of the paper's Section III.
	q, err := engine.SubmitCRAQL("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("submitted:", q)
	if ex, err := engine.ExplainQuery(q); err == nil {
		fmt.Println("planned:  ", ex.Estimate)
	}

	// Run 30 acquisition epochs.
	if err := engine.Run(30); err != nil {
		log.Fatal(err)
	}

	tuples, err := engine.Results(q.ID)
	if err != nil {
		log.Fatal(err)
	}
	rate := float64(len(tuples)) / (30 * q.Region.Area())
	fmt.Printf("fabricated %d tuples over 30 epochs → %.2f tuples/unit-area/epoch (requested %g)\n",
		len(tuples), rate, q.Rate)
	raining := 0
	for _, tp := range tuples {
		if tp.Value == 1 {
			raining++
		}
	}
	fmt.Printf("rain observed in %.0f%% of samples\n", 100*float64(raining)/float64(len(tuples)))
	for i, tp := range tuples {
		if i >= 3 {
			break
		}
		fmt.Println("  sample:", tp)
	}
}
