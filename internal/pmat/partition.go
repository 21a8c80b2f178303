package pmat

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/stream"
)

// Partition splits a point process P(λ, R*) into processes of the same rate
// λ on pairwise-disjoint sub-regions R*₁, R*₂, … ⊂ R*. It is implemented
// exactly as the paper describes: check which region an incoming tuple
// belongs to and pass it on to that branch; tuples in no branch (the query
// covers only part of the cell) are dropped. The fabricator gives every tap
// over part of a cell a P-operator of its own, so each operator serves one
// branch, and its compiled epoch program runs the operator's pass (Clip)
// over tuple positions.
type Partition struct {
	stream.Base
	region geom.Rect
}

// NewPartition constructs a partition operator over the input region R*.
func NewPartition(name string, region geom.Rect) (*Partition, error) {
	if region.IsEmpty() {
		return nil, fmt.Errorf("pmat: partition %q: empty input region", name)
	}
	return &Partition{Base: stream.NewBase(name, "P"), region: region}, nil
}

// Clip is the operator's pass over one batch: it appends to dst the
// positions in list — indices into tuples — whose tuple lies in branch, in
// list order, and accounts list as the batch in and what it kept as the
// batch out.
func (p *Partition) Clip(dst, list []uint32, tuples []stream.Tuple, branch geom.Rect) []uint32 {
	n := len(dst)
	for _, at := range list {
		if tp := &tuples[at]; branch.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			dst = append(dst, at)
		}
	}
	p.RecordBatchIn(len(list))
	p.RecordOut(len(dst) - n)
	return dst
}
