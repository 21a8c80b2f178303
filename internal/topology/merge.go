package topology

import (
	"errors"
	"sort"

	"repro/internal/geom"
	"repro/internal/pmat"
)

// MergeMode names the one merge layout; kept only because bench/trace.go
// passes it to InsertQueryMerge (ROADMAP item 2 deletes it).
type MergeMode int

// MergeFlat is the one merge layout: a single n-ary U-operator.
const MergeFlat MergeMode = 0

// MergePlan is the merge phase of one subplan: its leaf rectangles and the
// U-operator over them. The paper's Fig. 2(c) cascades binary U-operators;
// this is its n-ary generalization ("this operator can be easily extended to
// union multiple MDPPs at once"): one U-operator over every leaf. The
// compiled epoch program does the U-operator's merging and keeps its flow
// counters (Union.RecordMerged).
type MergePlan struct {
	// Rects are the leaf regions, in row-major cell order.
	Rects []geom.Rect
	// Region is the union of all leaves.
	Region geom.Rect
	// Union merges the leaves; nil for a single leaf.
	Union *pmat.Union
}

// NumUnions returns the number of U-operators in the plan: 1, or 0 for a
// single leaf.
func (mp *MergePlan) NumUnions() int {
	if mp.Union == nil {
		return 0
	}
	return 1
}

// BuildMergePlan constructs the merge phase for the given cell overlaps.
// Overlaps must be the output of geom.Grid.Overlapping for a rectangular
// query region, so the rectangles tile a rectangle. The name prefixes the
// U-operator's name (typically the query id).
func BuildMergePlan(name string, overlaps []geom.Overlap) (*MergePlan, error) {
	if len(overlaps) == 0 {
		return nil, errors.New("topology: BuildMergePlan requires at least one overlap")
	}
	rects := make([]geom.Rect, len(overlaps))
	for i, ov := range rowMajor(overlaps) {
		rects[i] = ov.Rect
	}
	plan := &MergePlan{Rects: rects, Region: rects[0]}
	if len(rects) == 1 {
		return plan, nil
	}
	u, err := pmat.NewUnion(name+"/U", rects...)
	if err != nil {
		return nil, err
	}
	plan.Region, plan.Union = u.Region(), u
	return plan, nil
}

// rowMajor returns the overlaps ordered by cell row, then column — the leaf
// order of a plan and the shard order of the pipelines that feed it.
func rowMajor(overlaps []geom.Overlap) []geom.Overlap {
	ordered := append([]geom.Overlap(nil), overlaps...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].Cell, ordered[j].Cell
		if a.R != b.R {
			return a.R < b.R
		}
		return a.Q < b.Q
	})
	return ordered
}
