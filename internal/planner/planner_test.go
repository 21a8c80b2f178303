package planner

import (
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
	// actually constructs, across query widths.
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
		plan, err := topology.BuildMergePlan("q", ovs)
		if err != nil {
			t.Fatal(err)
		}
		// One n-ary U-operator: the depth is its count.
		if unions, depth := mergeShape(len(ovs)); unions != plan.NumUnions() || depth != plan.NumUnions() {
			t.Fatalf("region %v: analytic (%d unions, depth %d) vs built %d unions", region, unions, depth, plan.NumUnions())
		}
	}
}

func TestEstimateQueryCostValidation(t *testing.T) {
	g := wideGrid(t)
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}
	if _, err := EstimateQueryCost(nil, q, 1, DefaultWeights()); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := EstimateQueryCost(g, q, 0, DefaultWeights()); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := EstimateQueryCost(g, query.Query{}, 1, DefaultWeights()); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := EstimateQueryCost(g, q, 1, Weights{PerTuple: -1}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestCostGrowsWithRateAndArea(t *testing.T) {
	g := wideGrid(t)
	w := DefaultWeights()
	small, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	faster, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 50}, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 16, 8), Rate: 5}, 1, w)
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
	whole, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(0, 0, 4, 2), Rate: 5}, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	// Same area, shifted off the cell boundary: every cell is partial.
	partial, err := EstimateQueryCost(g, query.Query{Attr: "a", Region: geom.NewRect(1, 1, 5, 3), Rate: 5}, 1, DefaultWeights())
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
	w := Weights{PerTuple: 1, PerOperator: 0, PerDepth: 0}
	best, err := ChooseMergeMode(g, q, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateQueryCost(g, q, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	if best != est || best.Mode != topology.MergeFlat || best.Depth != 1 {
		t.Fatalf("ChooseMergeMode = %+v, want the flat estimate %+v", best, est)
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
