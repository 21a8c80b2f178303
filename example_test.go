package craqr_test

import (
	"fmt"

	craqr "repro"
)

// ExampleParseCRAQL shows the declarative acquisitional query language: the
// three components the paper requires — attribute, region, rate.
func ExampleParseCRAQL() {
	q, err := craqr.ParseCRAQL("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Attr)
	fmt.Println(q.Region)
	fmt.Println(q.Rate)
	// Output:
	// rain
	// [0,4)x[0,4)
	// 10
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

// ExampleNewUnion shows the U operator's adjacency requirement: only
// rectangles sharing a full common side union into a rectangle.
func ExampleNewUnion() {
	left := craqr.NewRect(0, 0, 2, 2)
	right := craqr.NewRect(2, 0, 4, 2)
	u, err := craqr.NewUnion("demo", left, right)
	if err != nil {
		panic(err)
	}
	fmt.Println(u.Region())

	gap := craqr.NewRect(5, 0, 7, 2)
	if _, err := craqr.NewUnion("bad", left, gap); err != nil {
		fmt.Println("gap rejected")
	}
	// Output:
	// [0,4)x[0,2)
	// gap rejected
}

// ExampleEstimateQueryCost prices a wide query's execution topology (the
// Section VI query-optimization extension): eight T taps and one n-ary
// U-operator, rendered as the line every EXPLAIN surface prints.
func ExampleEstimateQueryCost() {
	grid, err := craqr.NewGrid(craqr.NewRect(0, 0, 32, 32), 256)
	if err != nil {
		panic(err)
	}
	q := craqr.Query{Attr: "rain", Region: craqr.NewRect(0, 0, 16, 2), Rate: 5}
	est, err := craqr.EstimateQueryCost(grid, q, 1, craqr.DefaultPlannerWeights())
	if err != nil {
		panic(err)
	}
	fmt.Println(est)
	// Output:
	// flat: ops=9 depth=1 tuples/epoch=320.0 cost=970.0
}
