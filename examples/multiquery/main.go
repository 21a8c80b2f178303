// Multi-query processing: reproduces the paper's Fig. 2 walkthrough
// programmatically. Three acquisitional queries with λ1 > λ2 > λ3 —
// Q1⟨rain⟩ over four whole cells, Q2⟨temp⟩ over two whole cells, and
// Q3⟨temp⟩ over a sub-cell region that needs P-operators — are inserted into
// a 3×3 grid; the example prints the execution topology after every
// insertion, runs the acquisition loop, and then deletes Q1 to show the
// right-to-left stream deletion and T-operator merging.
package main

import (
	"fmt"
	"log"

	craqr "repro"
)

func main() {
	region := craqr.NewRect(0, 0, 6, 6)
	rain, err := craqr.NewRainField(region, []craqr.Storm{{X0: 2, Y0: 2, VX: 0.2, VY: 0, Radius: 1.8}})
	if err != nil {
		log.Fatal(err)
	}
	temp, err := craqr.NewTempField(20, 0.4, 0, 3, 24, 0.2, craqr.NewRNG(9))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 9, // the 3×3 grid of Fig. 2
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 15, Delta: 5, Min: 3, Max: 400, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        700,
			Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.03},
		},
		Seed: 2,
	}, map[string]craqr.Field{"rain": rain, "temp": temp})
	if err != nil {
		log.Fatal(err)
	}

	// The three queries of Fig. 2, λ1 > λ2 > λ3.
	specs := []string{
		"ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 12",
		"ACQUIRE temp FROM RECT(4, 0, 6, 4) RATE 8",
		"ACQUIRE temp FROM RECT(1, 4, 3, 6) RATE 3",
	}
	var ids []string
	for _, src := range specs {
		q, err := engine.SubmitCRAQL(src)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, q.ID)
		fmt.Printf("inserted %s: %s\n", q.ID, src)
		fmt.Println(indent(engine.Fabricator().Render()))
	}
	fmt.Println("operator census:", engine.Fabricator().OperatorCounts())

	const epochs = 40
	if err := engine.Run(epochs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %d epochs:\n", epochs)
	for _, id := range ids {
		tuples, err := engine.Results(id)
		if err != nil {
			log.Fatal(err)
		}
		q, _ := engine.Fabricator().Query(id)
		fmt.Printf("  %s delivered %5d tuples → %.2f /unit-area/epoch (requested %g)\n",
			id, len(tuples), float64(len(tuples))/(epochs*q.Region.Area()), q.Rate)
	}

	// Deletion walkthrough: remove Q1, as in the paper's Query Deletions
	// paragraph — its streams are deleted right-to-left and the rain
	// pipelines disappear from the hashmap entirely.
	fmt.Println("\ndeleting", ids[0])
	if err := engine.Delete(ids[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Println(indent(engine.Fabricator().Render()))
	fmt.Println("operator census:", engine.Fabricator().OperatorCounts())
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				lines = append(lines, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
