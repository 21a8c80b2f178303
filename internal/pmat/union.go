package pmat

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/stream"
)

// Union merges MDPPs of the same attribute and rate on adjacent regions
// R*₁, R*₂, … into one process on R*₃ = ∪ R*ᵢ. The paper requires unioned
// rectangles to be adjacent with a common side of equal length so the result
// is again a rectangle; NewUnion enforces this by checking that the inputs
// tile their bounding rectangle.
//
// The merge itself — one time slice's inputs interleaved in (T, ID) order,
// the paper's Fig. 2(c) merge phase — is run by the fabricator's compiled
// epoch program over tuple positions; the operator holds the unioned region
// and the flow counters that program keeps (RecordMerged).
type Union struct {
	stream.Base

	unioned geom.Rect
	inputs  int
}

// NewUnion constructs a union over the given input regions. The regions
// must be non-empty, pairwise disjoint, and tile their bounding box exactly
// (total area equals the bounding-box area), which generalizes the paper's
// pairwise adjacency condition to multi-way unions.
func NewUnion(name string, regions ...geom.Rect) (*Union, error) {
	if len(regions) < 2 {
		return nil, errors.New("pmat: union requires at least two input regions")
	}
	for i, r := range regions {
		if r.IsEmpty() {
			return nil, fmt.Errorf("pmat: union %q: input region %d is empty", name, i)
		}
	}
	if !geom.Disjoint(regions) {
		return nil, fmt.Errorf("pmat: union %q: input regions overlap", name)
	}
	bb, err := geom.BoundingBox(regions)
	if err != nil {
		return nil, fmt.Errorf("pmat: union %q: %w", name, err)
	}
	total := 0.0
	for _, r := range regions {
		total += r.Area()
	}
	if diff := bb.Area() - total; diff > 1e-6*bb.Area() {
		return nil, fmt.Errorf("pmat: union %q: input regions do not tile a rectangle (gap area %g); the paper requires adjacent regions with common sides", name, diff)
	}
	return &Union{Base: stream.NewBase(name, "U"), unioned: bb, inputs: len(regions)}, nil
}

// Region returns R*₃, the unioned output region.
func (u *Union) Region() geom.Rect { return u.unioned }

// RecordMerged accounts one time slice merged by the compiled epoch
// program: every input delivered its share, and n tuples in all came in and
// went out.
func (u *Union) RecordMerged(n int) {
	u.RecordBatchesIn(u.inputs, n)
	u.RecordOut(n)
}
