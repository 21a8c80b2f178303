package craqr_test

import (
	"fmt"

	craqr "repro"
)

// ExampleFormatCRAQL renders a query in the declarative acquisitional query
// language: the three components the paper requires — attribute, region,
// rate.
func ExampleFormatCRAQL() {
	q := craqr.Query{Attr: "rain", Region: craqr.NewRect(0, 0, 4, 4), Rate: 10}
	fmt.Println(craqr.FormatCRAQL(q))
	// Output:
	// ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10
}

// ExampleNewThin demonstrates the T PMAT operator: thinning a homogeneous
// process down to a lower rate with a biased coin per tuple.
func ExampleNewThin() {
	rng := craqr.NewRNG(1)
	th, err := craqr.NewThin("demo", 100, 25, rng)
	if err != nil {
		panic(err)
	}
	fmt.Println(th.Kind(), th.Probability())
	// Output:
	// T 0.25
}

// ExampleEngine_Explain prices a wide query's execution topology (the
// Section VI query-optimization extension) without submitting it: eight T
// taps and one n-ary U-operator, rendered as the line every EXPLAIN surface
// prints.
func ExampleEngine_Explain() {
	region := craqr.NewRect(0, 0, 32, 32)
	rain, err := craqr.NewRainField(region, nil)
	if err != nil {
		panic(err)
	}
	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 256,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet:     craqr.FleetConfig{N: 10, Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1}},
	}, map[string]craqr.Field{"rain": rain})
	if err != nil {
		panic(err)
	}
	ex, err := engine.Explain("EXPLAIN ACQUIRE rain FROM RECT(0, 0, 16, 2) RATE 5")
	if err != nil {
		panic(err)
	}
	fmt.Println(ex.Estimate)
	// Output:
	// flat: ops=9 depth=1 tuples/epoch=320.0 cost=970.0
}
