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
// It runs an epoch the way the paper's Fig. 1 draws it: the map phase picks
// each cell's share out of the batch tuple by tuple, and every share is
// pushed, serially and in shard order, through the fabricator's own F- and
// T-operators by their Process methods. Each tap's P-operator is a
// tuple-by-tuple clip of the stage's output, and each subplan's U-operator
// concatenates its leaves' runs in leaf order and stable-sorts them by
// (T, ID) once every cell has run; both are the walk's own, naive code,
// accounted on the fabricator's P- and U-operators. The F- and T-operators
// are the fabricator's, so their estimators, generators and flow counters
// move as the program's would; only the wiring is the walk's.
//
// Each F- and T-operator is given one downstream for life, a relay the walk
// points at the current topology before every epoch, so the inserts,
// deletes and retunes between epochs need no unwiring.
type graphWalk struct {
	f      *Fabricator
	relays map[any]*relay
}

func newGraphWalk(f *Fabricator) *graphWalk {
	return &graphWalk{f: f, relays: map[any]*relay{}}
}

// relay forwards a batch to what the walk wired after an operator.
type relay struct{ outs []stream.Processor }

func (r *relay) Process(b stream.Batch) error {
	for _, out := range r.outs {
		if err := out.Process(b); err != nil {
			return err
		}
	}
	return nil
}

// after returns op's relay, emptied for this epoch's wiring; op is connected
// to it on first use.
func (w *graphWalk) after(op interface{ AddDownstream(stream.Processor) }) *relay {
	r, ok := w.relays[op]
	if !ok {
		r = &relay{}
		op.AddDownstream(r)
		w.relays[op] = r
	}
	r.outs = r.outs[:0]
	return r
}

// leaf is one tap of a subplan: it clips what its T-operator emits to the
// tap's region when the tap has a P-operator, and keeps the rest as the
// subplan's run for the tap's cell.
type leaf struct {
	t   *tap
	run *[]stream.Tuple
}

func (l leaf) Process(b stream.Batch) error {
	if l.t.partition == nil {
		*l.run = append(*l.run, b.Tuples...)
		return nil
	}
	kept := 0
	for _, tp := range b.Tuples {
		if l.t.region.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			*l.run = append(*l.run, tp)
			kept++
		}
	}
	l.t.partition.RecordBatchIn(len(b.Tuples))
	l.t.partition.RecordOut(kept)
	return nil
}

// Ingest runs one epoch of b's attribute through the operators: wire them as
// the topology stands, walk every cell's share from its F-operator on, then
// merge and deliver every subplan of the attribute, in fabrication order.
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
	pipes := f.order[b.Attr]
	for _, p := range pipes {
		up := w.after(p.flatten)
		for _, n := range p.nodes {
			up.outs = append(up.outs, n.thin)
			up = w.after(n.thin)
			for _, t := range n.taps {
				st := byTap[t.queryID]
				up.outs = append(up.outs, leaf{t: t, run: &runs[st][slices.Index(st.keys, p.key)]})
			}
		}
	}
	for _, p := range pipes {
		share := stream.Batch{Attr: b.Attr, Window: b.Window.WithRect(p.cellRect)}
		for _, tp := range b.Tuples {
			if cell, ok := f.grid.CellAt(geom.Point{X: tp.X, Y: tp.Y}); ok && cell == p.key.Cell {
				share.Tuples = append(share.Tuples, tp)
			}
		}
		if err := p.flatten.Process(share); err != nil {
			return err
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
