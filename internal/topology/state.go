package topology

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stream"
)

// Encoded sizes that bound the counts a decoder accepts (codec.Reader.Count).
const (
	queryMinBytes    = 2 + 5*8
	subplanMinBytes  = 1 + queryMinBytes + 1 + 4
	pipelineMinBytes = 4 + 2*8
)

// EncodeState appends the fabricator's whole state to w: the query counter,
// every subplan in fabrication order — its creating query, its
// members in attach order and the result ring they share, with each
// member's attach point — then every pipeline in (attr, row-major) order
// with its operators' rates, generators and estimator state and the subplans
// tapping each rate node, and which attributes hold a compiled program.
// Every member sink must be a *stream.ResultStore. Derived structure (merge
// plans, fans, shard orders, budget wiring) is not written; DecodeState
// rebuilds it.
func (f *Fabricator) EncodeState(w *codec.Writer) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	w.Int(f.querySeq)
	w.Uvarint(f.subplanSeq)
	w.Uvarint(f.sharedAttaches)
	w.Uvarint(f.compiles.Load())

	subplans := f.distinctStates()
	slices.SortFunc(subplans, func(a, b *queryState) int { return cmp.Compare(a.seq, b.seq) })
	w.Uvarint(uint64(len(subplans)))
	for _, st := range subplans {
		w.Uvarint(st.seq)
		encodeQuery(w, st.q)
		w.Uvarint(uint64(len(st.fan.ids)))
		handles := make([]*stream.ResultStore, len(st.fan.ids))
		for i, id := range st.fan.ids {
			encodeQuery(w, f.queries[id].q)
			h, ok := st.fan.sinks[i].(*stream.ResultStore)
			if !ok {
				w.Fail(fmt.Errorf("topology: query %s delivers to a %T, which a snapshot cannot keep", id, st.fan.sinks[i]))
				return
			}
			handles[i] = h
		}
		stream.EncodeShared(w, handles)
	}

	w.Uvarint(uint64(len(f.cells)))
	for _, attr := range f.attrs {
		for _, p := range f.order[attr] {
			p.encodeState(w)
		}
	}
	for _, attr := range f.attrs {
		w.Bool(f.programs[attr].Load() != nil)
	}
}

func (p *CellPipeline) encodeState(w *codec.Writer) {
	w.String(p.key.Attr)
	w.Int(p.key.Cell.Q)
	w.Int(p.key.Cell.R)
	w.Float64(p.nominalTarget)
	w.Float64(p.scale)
	w.Int(p.nameSeq)
	p.flatten.EncodeState(w)
	w.Uvarint(uint64(len(p.nodes)))
	for _, n := range p.nodes {
		w.Float64(n.rate)
		n.thin.EncodeState(w)
		w.Uvarint(uint64(len(n.taps)))
		for _, t := range n.taps {
			w.String(t.queryID)
		}
	}
}

// DecodeState rebuilds what EncodeState wrote into a fabricator that holds
// no queries, returning every query's result store (one per member, on its
// subplan's restored ring of the given retention). The rebuilt topology must
// pass CheckInvariants.
func (f *Fabricator) DecodeState(r *codec.Reader, retention int) map[string]*stream.ResultStore {
	stores := f.decodeState(r, retention)
	if r.Err() != nil {
		return nil
	}
	if err := f.CheckInvariants(); err != nil {
		r.Failf("restored topology: %v", err)
		return nil
	}
	return stores
}

func (f *Fabricator) decodeState(r *codec.Reader, retention int) map[string]*stream.ResultStore {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queries) > 0 || len(f.cells) > 0 {
		r.Failf("restoring into a fabricator that already holds queries")
		return nil
	}
	f.querySeq = r.Int()
	f.subplanSeq = r.Uvarint()
	f.sharedAttaches = r.Uvarint()
	compiles := r.Uvarint()

	stores := make(map[string]*stream.ResultStore)
	var ids []string
	byTap := make(map[string]*queryState)
	n := r.Count(subplanMinBytes)
	for i := 0; i < n && r.Err() == nil; i++ {
		st := &queryState{seq: r.Uvarint(), q: decodeQuery(r), fan: &fanOut{}}
		st.tapID = st.q.ID
		if err := f.rebuildPlan(st); err != nil {
			r.Failf("subplan %s: %v", st.tapID, err)
			return nil
		}
		if byTap[st.tapID] != nil || st.key != "" && f.shared[st.key] != nil {
			r.Failf("subplan %s restored twice", st.tapID)
			return nil
		}
		m := r.Count(queryMinBytes)
		if m == 0 {
			r.Failf("subplan %s has no members", st.tapID)
			return nil
		}
		ids = ids[:0]
		for j := 0; j < m; j++ {
			q := decodeQuery(r)
			if _, dup := f.queries[q.ID]; dup || r.Err() != nil {
				r.Failf("query %q restored twice", q.ID)
				return nil
			}
			ids = append(ids, q.ID)
			f.queries[q.ID] = liveQuery{q: q, sp: st}
		}
		handles := stream.DecodeShared(r, st.q.Attr, retention, m)
		if r.Err() != nil {
			return nil
		}
		for j, id := range ids {
			st.fan.add(id, handles[j])
			stores[id] = handles[j]
		}
		byTap[st.tapID] = st
		if st.key != "" {
			f.shared[st.key] = st
		}
	}

	np := r.Count(pipelineMinBytes)
	for i := 0; i < np && r.Err() == nil; i++ {
		if err := f.decodePipeline(r, byTap); err != nil {
			r.Failf("%v", err)
			return nil
		}
	}
	attrs := make(map[string]bool)
	for k := range f.cells {
		attrs[k.Attr] = true
	}
	for attr := range attrs {
		f.refreshOrder(attr)
	}
	for _, attr := range f.attrs {
		if r.Bool() {
			f.programs[attr].Store(f.compile(attr))
		}
	}
	f.compiles.Store(compiles)
	return stores
}

// rebuildPlan derives a subplan's structure from its creating query, as
// InsertQuery does: the merge plan, the cells it taps and its shared key.
func (f *Fabricator) rebuildPlan(st *queryState) error {
	if err := st.q.Validate(f.grid); err != nil {
		return err
	}
	overlaps := f.grid.Overlapping(st.q.Region)
	plan, err := BuildMergePlan(st.tapID, overlaps)
	if err != nil {
		return err
	}
	st.plan = plan
	for _, ov := range rowMajor(overlaps) {
		st.keys = append(st.keys, Key{Cell: ov.Cell, Attr: st.q.Attr})
	}
	if f.shared != nil {
		st.key = craql.CanonicalKey(st.q)
	}
	return nil
}

// decodePipeline rebuilds one cell pipeline: its F-operator and T-chain
// with their saved rates and generators, and every tap, over its subplan's
// leaf for this cell, in the saved order.
func (f *Fabricator) decodePipeline(r *codec.Reader, byTap map[string]*queryState) error {
	key := Key{Attr: r.String()}
	key.Cell.Q, key.Cell.R = r.Int(), r.Int()
	if r.Err() != nil {
		return nil
	}
	if _, dup := f.cells[key]; dup {
		return fmt.Errorf("pipeline %v restored twice", key)
	}
	cellRect, err := f.grid.Cell(key.Cell)
	if err != nil {
		return err
	}
	p, err := NewCellPipeline(key, cellRect, f.rng.ForkKeyed(key.rngKey()))
	if err != nil {
		return err
	}
	p.nominalTarget, p.scale = r.Float64(), r.Float64()
	nameSeq := r.Int()
	p.flatten.DecodeState(r)
	nn := r.Count(8)
	if nn == 0 && r.Err() == nil {
		return fmt.Errorf("pipeline %v has no T-operators", key)
	}
	tapped := make(map[string]bool)
	for j := 0; j < nn && r.Err() == nil; j++ {
		rate := r.Float64()
		// Placeholder rates: DecodeState overwrites them with the saved ones.
		thin, err := pmat.NewThin(p.nextName("T"), 2, 1, p.rng.ForkKeyed(math.Float64bits(rate)))
		if err != nil {
			return err
		}
		thin.DecodeState(r)
		node := &rateNode{rate: rate, thin: thin}
		p.nodes = append(p.nodes, node)
		nt := r.Count(1)
		for k := 0; k < nt && r.Err() == nil; k++ {
			id := r.String()
			st := byTap[id]
			leaf := -1
			if st != nil {
				leaf = slices.Index(st.keys, key)
			}
			if leaf < 0 || tapped[id] {
				return fmt.Errorf("pipeline %v: tap %q matches no subplan cell", key, id)
			}
			tapped[id] = true
			if err := p.tapNode(node, id, st.plan.Rects[leaf]); err != nil {
				return err
			}
		}
	}
	if r.Err() != nil {
		return nil
	}
	p.nameSeq = nameSeq
	if err := p.Invariants(); err != nil {
		return err
	}
	f.cells[key] = p
	f.registerBudget(key)
	return nil
}

func encodeQuery(w *codec.Writer, q query.Query) {
	w.String(q.ID)
	w.String(q.Attr)
	geom.EncodeRect(w, q.Region)
	w.Float64(q.Rate)
}

func decodeQuery(r *codec.Reader) query.Query {
	return query.Query{ID: r.String(), Attr: r.String(), Region: geom.DecodeRect(r), Rate: r.Float64()}
}
