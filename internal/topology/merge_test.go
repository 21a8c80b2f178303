package topology

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// overlapsFor builds the overlap list of a query rect on a grid.
func overlapsFor(t *testing.T, g *geom.Grid, region geom.Rect) []geom.Overlap {
	t.Helper()
	ovs := g.Overlapping(region)
	if len(ovs) == 0 {
		t.Fatal("no overlaps")
	}
	return ovs
}

// feedPlan merges perLeaf tuples at each leaf's centre the way the reference
// walk's U-operator does (mergeLeaves) and returns the merged slice, after
// checking that every tuple lies in the plan's region.
func feedPlan(t *testing.T, plan *MergePlan, perLeaf int) []stream.Tuple {
	t.Helper()
	runs := make([][]stream.Tuple, len(plan.Rects))
	for i, r := range plan.Rects {
		c := r.Center()
		for j := 0; j < perLeaf; j++ {
			runs[i] = append(runs[i], stream.Tuple{ID: uint64(i*1000 + j), T: 0.5, X: c.X, Y: c.Y})
		}
	}
	merged := mergeLeaves(plan.Union, runs)
	for _, tp := range merged {
		if !plan.Region.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			t.Fatalf("leaf tuple %v outside the plan's region %v", tp, plan.Region)
		}
	}
	if st := plan.Union.Stats(); st.BatchesIn != uint64(len(plan.Rects)) || st.TuplesOut != uint64(len(merged)) {
		t.Fatalf("U accounted %+v for %d leaves and %d tuples", st, len(plan.Rects), len(merged))
	}
	return merged
}

func TestBuildMergePlanSingleLeaf(t *testing.T) {
	g := fig2Grid(t)
	region := geom.NewRect(0, 0, 2, 2)
	plan, err := BuildMergePlan("Q", overlapsFor(t, g, region))
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumUnions() != 0 {
		t.Fatal("single leaf should need no unions")
	}
	if len(plan.Rects) != 1 || !plan.Region.Equal(region) {
		t.Fatalf("leaves %v, region %v; want the one cell %v", plan.Rects, plan.Region, region)
	}
}

func testPlanDelivery(t *testing.T, region geom.Rect, wantLeaves int) *MergePlan {
	t.Helper()
	g := fig2Grid(t)
	ovs := overlapsFor(t, g, region)
	plan, err := BuildMergePlan("Q", ovs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rects) != wantLeaves {
		t.Fatalf("leaves = %d, want %d", len(plan.Rects), wantLeaves)
	}
	if got := len(feedPlan(t, plan, 2)); got != 2*wantLeaves {
		t.Fatalf("delivered %d tuples, want %d", got, 2*wantLeaves)
	}
	if !plan.Region.Equal(region) {
		t.Fatalf("plan region %v, want %v", plan.Region, region)
	}
	return plan
}

func TestBuildMergePlanFlat(t *testing.T) {
	plan := testPlanDelivery(t, geom.NewRect(0, 0, 6, 4), 6)
	if plan.NumUnions() != 1 {
		t.Fatalf("flat plan: unions=%d", plan.NumUnions())
	}
}

func TestBuildMergePlanPartialOverlaps(t *testing.T) {
	// Sub-cell query spanning two cells: leaves are the partial rects and
	// they still tile the query region.
	g := fig2Grid(t)
	region := geom.NewRect(1, 4, 3, 6)
	plan, err := BuildMergePlan("Q", overlapsFor(t, g, region))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rects) != 2 {
		t.Fatalf("leaves = %d", len(plan.Rects))
	}
	if !plan.Region.Equal(region) {
		t.Fatalf("plan region = %v", plan.Region)
	}
}

func TestBuildMergePlanEmptyInput(t *testing.T) {
	if _, err := BuildMergePlan("Q", nil); err == nil {
		t.Fatal("empty overlaps should error")
	}
}

func TestMergePlanOrderIndependence(t *testing.T) {
	// Overlaps arrive in any order; the plan sorts row-major internally.
	g := fig2Grid(t)
	ovs := overlapsFor(t, g, geom.NewRect(0, 0, 4, 4))
	// Reverse the order.
	rev := make([]geom.Overlap, len(ovs))
	for i, ov := range ovs {
		rev[len(ovs)-1-i] = ov
	}
	plan, err := BuildMergePlan("Q", rev)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := BuildMergePlan("Q", ovs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Rects, fwd.Rects) {
		t.Fatalf("leaves %v from reversed overlaps, %v in grid order", plan.Rects, fwd.Rects)
	}
	if got := len(feedPlan(t, plan, 1)); got != 4 {
		t.Fatalf("delivered %d of 4", got)
	}
}
