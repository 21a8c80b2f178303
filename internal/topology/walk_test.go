package topology

import (
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
// pushed, serially and in shard order, through the fabricator's own
// operators — F, the T-chain, the P-operators and each subplan's
// U-operator — by their Process methods, into the subplan's fan. The
// operators are the fabricator's, so their estimators, generators and flow
// counters move as the program's would; only the wiring is the walk's.
//
// Each operator is given one downstream for life, a relay the walk points at
// the current topology before every epoch, so the inserts, deletes and
// retunes between epochs need no unwiring.
type graphWalk struct {
	f      *Fabricator
	relays map[any]*relay
	ports  map[*pmat.Partition]*pmat.Port
}

func newGraphWalk(f *Fabricator) *graphWalk {
	return &graphWalk{f: f, relays: map[any]*relay{}, ports: map[*pmat.Partition]*pmat.Port{}}
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

// port returns the branch of t's P-operator, adding it — t's region, the
// operator's only branch — on first use.
func (w *graphWalk) port(t *tap) (*pmat.Port, error) {
	port, ok := w.ports[t.partition]
	if !ok {
		var err error
		if port, err = t.partition.AddBranch(t.queryID, t.region); err != nil {
			return nil, err
		}
		w.ports[t.partition] = port
	}
	return port, nil
}

// fanSink hands a batch to a subplan's fan the way the program's merge phase
// does, as positions: every row, in batch order.
type fanSink struct{ fan *fanOut }

func (s fanSink) Process(b stream.Batch) error {
	pos := make([]uint32, len(b.Tuples))
	for i := range pos {
		pos[i] = uint32(i)
	}
	var rows []stream.Tuple
	return s.fan.deliver(b, b.Tuples, pos, &rows)
}

// Ingest runs one epoch of b's attribute through the operators: wire them as
// the topology stands, then walk every cell's share from its F-operator on.
func (w *graphWalk) Ingest(b stream.Batch) error {
	f := w.f
	f.mu.RLock()
	defer f.mu.RUnlock()
	byTap := map[string]*queryState{}
	for _, st := range f.distinctStates() {
		byTap[st.tapID] = st
		if u := st.plan.Union; u != nil {
			r := w.after(u)
			r.outs = append(r.outs, fanSink{st.fan})
		}
	}
	pipes := f.order[b.Attr]
	for _, p := range pipes {
		up := w.after(p.flatten)
		for _, n := range p.nodes {
			up.outs = append(up.outs, n.thin)
			up = w.after(n.thin)
			for _, t := range n.taps {
				st := byTap[t.queryID]
				var leaf stream.Processor = fanSink{st.fan}
				if u := st.plan.Union; u != nil {
					in, err := u.Input(slices.Index(st.keys, p.key))
					if err != nil {
						return err
					}
					leaf = in
				}
				if t.partition == nil {
					up.outs = append(up.outs, leaf)
					continue
				}
				port, err := w.port(t)
				if err != nil {
					return err
				}
				branch := w.after(port)
				branch.outs = append(branch.outs, leaf)
				up.outs = append(up.outs, t.partition)
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
	return nil
}
