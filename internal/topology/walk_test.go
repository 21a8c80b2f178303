package topology

import (
	"cmp"
	"slices"

	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/stream"
)

// epochRunner runs one epoch of one attribute: a Fabricator on its compiled
// program, or the reference walk over one.
type epochRunner interface {
	Ingest(stream.Batch) error
}

// graphWalk is the reference executor the compiled epoch program is held to.
// It runs an epoch the way the paper's Fig. 1 draws it, one materialized
// batch per hop: the map phase picks each cell's share out of the batch
// tuple by tuple, and every share goes, serially and in shard order, through
// the cell's F-operator and then down its T-chain stage by stage. F is the
// operator's kernel (ProcessFused), whose survivors the walk copies out of
// the batch; each T-stage is the walk's own naive T, a Bernoulli draw on the
// stage's generator for every tuple of the stage before's output. Each tap's
// P-operator is a tuple-by-tuple clip of its stage's output, and each
// subplan's U-operator concatenates its leaves' runs in leaf order and
// stable-sorts them by (T, ID) once every cell has run. T, P and U are the
// walk's own, naive code, accounted on the fabricator's operators.
// The F- and T-operators are the fabricator's, so their estimators,
// generators and flow counters move as the program's would.
type graphWalk struct{ f *Fabricator }

func newGraphWalk(f *Fabricator) *graphWalk { return &graphWalk{f: f} }

// flattenShare runs the cell's F-operator on its share and returns the
// survivors.
func flattenShare(fl *pmat.Flatten, share stream.Batch) ([]stream.Tuple, error) {
	keep := make([]bool, share.Len())
	if _, err := fl.ProcessFused(share, keep); err != nil {
		return nil, err
	}
	var kept []stream.Tuple
	for i, k := range keep {
		if k {
			kept = append(kept, share.Tuples[i])
		}
	}
	return kept, nil
}

// thinStage is the walk's T-operator: one draw on th's generator per input
// tuple, in input order, keeping the tuples whose draw succeeds.
func thinStage(th *pmat.Thin, in []stream.Tuple) []stream.Tuple {
	p, rng := th.BeginFused()
	var kept []stream.Tuple
	for _, tp := range in {
		if rng.Bernoulli(p) {
			kept = append(kept, tp)
		}
	}
	th.EndFused(len(in), len(kept))
	return kept
}

// clipLeaf is the walk's P-operator: it appends to run what of a stage's
// output falls in the tap's region when the tap has a P-operator, and all
// of it otherwise.
func clipLeaf(t *tap, out []stream.Tuple, run *[]stream.Tuple) {
	if t.partition == nil {
		*run = append(*run, out...)
		return
	}
	kept := 0
	for _, tp := range out {
		if t.region.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			*run = append(*run, tp)
			kept++
		}
	}
	t.partition.RecordBatchIn(len(out))
	t.partition.RecordOut(kept)
}

// Ingest runs one epoch of b's attribute through the operators: walk every
// cell's share from its F-operator down its T-chain, then merge and deliver
// every subplan of the attribute, in fabrication order.
func (w *graphWalk) Ingest(b stream.Batch) error {
	f := w.f
	f.mu.RLock()
	defer f.mu.RUnlock()
	byTap := map[string]*queryState{}
	runs := map[*queryState][][]stream.Tuple{}
	var states []*queryState
	for _, st := range f.distinctStates() {
		if st.q.Attr == b.Attr {
			byTap[st.tapID] = st
			runs[st] = make([][]stream.Tuple, len(st.keys))
			states = append(states, st)
		}
	}
	slices.SortFunc(states, func(a, b *queryState) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range f.order[b.Attr] {
		share := stream.Batch{Attr: b.Attr, Window: b.Window.WithRect(p.cellRect)}
		for _, tp := range b.Tuples {
			if cell, ok := f.grid.CellAt(geom.Point{X: tp.X, Y: tp.Y}); ok && cell == p.key.Cell {
				share.Tuples = append(share.Tuples, tp)
			}
		}
		out, err := flattenShare(p.flatten, share)
		if err != nil {
			return err
		}
		for _, n := range p.nodes {
			out = thinStage(n.thin, out)
			for _, t := range n.taps {
				st := byTap[t.queryID]
				clipLeaf(t, out, &runs[st][slices.Index(st.keys, p.key)])
			}
		}
	}
	for _, st := range states {
		merged := runs[st][0]
		if u := st.plan.Union; u != nil {
			merged = mergeLeaves(u, runs[st])
		}
		pos := make([]uint32, len(merged))
		for i := range pos {
			pos[i] = uint32(i)
		}
		var rows []stream.Tuple
		out := stream.Batch{Attr: b.Attr, Window: b.Window.WithRect(st.plan.Region)}
		if err := st.fan.deliver(out, merged, pos, &rows); err != nil {
			return err
		}
	}
	return nil
}

// mergeLeaves is the walk's U-operator: the leaves' runs concatenated in leaf
// order and stable-sorted by (T, ID), so tuples equal in both keep leaf
// order, accounted on u as one merged time slice.
func mergeLeaves(u *pmat.Union, runs [][]stream.Tuple) []stream.Tuple {
	var merged []stream.Tuple
	for _, run := range runs {
		merged = append(merged, run...)
	}
	slices.SortStableFunc(merged, stream.CompareTuples)
	u.RecordMerged(len(merged))
	return merged
}
