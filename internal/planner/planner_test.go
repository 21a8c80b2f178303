package planner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topology"
)

func wideGrid(t *testing.T) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.NewRect(0, 0, 32, 32), 256) // 16×16 cells of 2×2
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightsValidate(t *testing.T) {
	if (Weights{PerTuple: -1}).Validate() == nil {
		t.Error("negative weight accepted")
	}
	if DefaultWeights().Validate() != nil {
		t.Error("default weights rejected")
	}
}

func TestMergeShapeMatchesBuiltPlans(t *testing.T) {
	// The analytic shape must agree with what topology.BuildMergePlan
	// actually constructs, across modes and query widths.
	g := wideGrid(t)
	cases := []geom.Rect{
		geom.NewRect(0, 0, 4, 2),  // 2×1
		geom.NewRect(0, 0, 16, 2), // 8×1
		geom.NewRect(0, 0, 8, 8),  // 4×4
		geom.NewRect(0, 0, 2, 2),  // single cell
		geom.NewRect(1, 1, 5, 3),  // partial cells 3×1... includes partials
	}
	for _, region := range cases {
		ovs := g.Overlapping(region)
		for _, mode := range []topology.MergeMode{topology.MergeFlat, topology.MergeChain, topology.MergeTree} {
			plan, err := topology.BuildMergePlan("q", ovs, mode)
			if err != nil {
				t.Fatal(err)
			}
			unions, depth := mergeShape(rowLengths(ovs), mode)
			if unions != plan.NumUnions() || depth != plan.Depth {
				t.Fatalf("region %v mode %v: analytic (%d unions, depth %d) vs built (%d, %d)",
					region, mode, unions, depth, plan.NumUnions(), plan.Depth)
			}
		}
	}
}

func TestEstimateQueryCostValidation(t *testing.T) {
	g := wideGrid(t)
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}
	if _, err := EstimateQueryCost(nil, q, topology.MergeFlat, 1, DefaultWeights()); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := EstimateQueryCost(g, q, topology.MergeFlat, 0, DefaultWeights()); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := EstimateQueryCost(g, query.Query{}, topology.MergeFlat, 1, DefaultWeights()); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := EstimateQueryCost(g, q, topology.MergeFlat, 1, Weights{PerTuple: -1}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestCostGrowsWithRateAndArea(t *testing.T) {
	g := wideGrid(t)
	w := DefaultWeights()
	small, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}, topology.MergeFlat, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	faster, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 50}, topology.MergeFlat, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 16, 8), Rate: 5}, topology.MergeFlat, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	if faster.Total <= small.Total {
		t.Fatal("higher rate must cost more")
	}
	if bigger.Total <= small.Total {
		t.Fatal("larger region must cost more")
	}
}

func TestPartialCellsChargePOperators(t *testing.T) {
	g := wideGrid(t)
	whole, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}, topology.MergeFlat, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	// Same area, shifted off the cell boundary: every cell is partial.
	partial, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(1, 1, 5, 3), Rate: 5}, topology.MergeFlat, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if partial.Operators <= whole.Operators {
		t.Fatalf("partial-cell query has %d ops, whole-cell %d; P-operators not charged", partial.Operators, whole.Operators)
	}
}

func TestChooseMergeModePrefersFlatWhenDepthCheap(t *testing.T) {
	g := wideGrid(t)
	q := query.Query{Attr: "a", Region: geom.NewRect(0, 0, 16, 2), Rate: 5}
	best, err := ChooseMergeMode(g, q, 1, Weights{PerTuple: 1, PerOperator: 0, PerDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	// With no depth/operator penalty and tuple cost increasing in depth,
	// the flat plan (depth 1) wins.
	if best.Mode != topology.MergeFlat {
		t.Fatalf("best mode = %v, want flat", best.Mode)
	}
}

// TestChooseMergeModeIsFlatForAnyWeights pins what the cost model decides:
// always flat. mergeShape gives flat one union at depth 1 and chain/tree
// n−1 ≥ 1 unions at depth ≥ 1 (all three are 0/0 on a single cell), every
// term of Total is non-decreasing in operators and depth under the
// non-negative weights Validate admits, and ChooseMergeMode prices flat first
// under a strict <. Since the compiled position program merges identically
// for every mode, Engine.Submit does not plan: it builds the fabricator's
// merge mode, flat by default. A failure here means the cost model can
// prefer another layout again — the choice is a real decision, and
// submission would have to consult the planner to honour it.
func TestChooseMergeModeIsFlatForAnyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	weight := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Float64() * 1000
	}
	const side = 32.0
	for _, cells := range []int{1, 4, 9, 16, 64, 256} {
		g, err := geom.NewGrid(geom.NewRect(0, 0, side, side), cells)
		if err != nil {
			t.Fatal(err)
		}
		cell := side / math.Sqrt(float64(cells))
		for i := 0; i < 2000; i++ { // 6 grids × 2000 = 12k priced cases
			// At least one cell wide and high: the one-cell minimum area.
			dx, dy := cell+rng.Float64()*(side-cell), cell+rng.Float64()*(side-cell)
			x0, y0 := rng.Float64()*(side-dx), rng.Float64()*(side-dy)
			q := query.Query{Attr: "a", Region: geom.NewRect(x0, y0, x0+dx, y0+dy), Rate: 0.01 + rng.Float64()*100}
			w := Weights{PerTuple: weight(), PerOperator: weight(), PerDepth: weight()}
			best, err := ChooseMergeMode(g, q, 0.01+rng.Float64()*10, w)
			if err != nil {
				t.Fatal(err)
			}
			if best.Mode != topology.MergeFlat {
				t.Fatalf("grid %d, %v, weights %+v: chose %v, want flat", cells, q, w, best)
			}
		}
	}
}

func TestChooseMergeModeSingleCellIsFree(t *testing.T) {
	g := wideGrid(t)
	q := query.Query{Attr: "a", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}
	best, err := ChooseMergeMode(g, q, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if best.Depth != 0 {
		t.Fatalf("single-cell depth = %d", best.Depth)
	}
}

func TestCompareModesOrderingAndDominance(t *testing.T) {
	g := wideGrid(t)
	q := query.Query{Attr: "a", Region: geom.NewRect(0, 0, 16, 2), Rate: 5} // 8 cells in a row
	ests, err := CompareModes(g, q, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("estimates = %d", len(ests))
	}
	flat, chain, tree := ests[0], ests[1], ests[2]
	if flat.Mode != topology.MergeFlat || chain.Mode != topology.MergeChain || tree.Mode != topology.MergeTree {
		t.Fatal("mode order wrong")
	}
	if !(tree.Depth < chain.Depth) {
		t.Fatalf("tree depth %d not below chain %d", tree.Depth, chain.Depth)
	}
	if tree.Total >= chain.Total {
		t.Fatalf("tree (%g) should beat chain (%g) under default weights", tree.Total, chain.Total)
	}
	if est := flat.String(); est == "" {
		t.Fatal("String empty")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}
