package topology

import (
	"fmt"
	"slices"

	"repro/internal/stream"
)

// fanOut is the per-subplan delivery point: the subplan's merge phase hands
// it each epoch's rows, and every query sharing the subplan registers its
// own sink. Batches flow through unchanged — the fan draws no randomness and
// keeps no state — so attaching or detaching a member never perturbs the
// fabricated bytes any other member observes.
//
// The acquired stream of a subplan exists once: a member whose sink is a
// fresh *stream.ResultStore is rebound onto the ring an earlier member's
// store already reads (stream.ResultStore.Join), and the fan writes each
// distinct ring through one of its stores only. Any other stream.Processor —
// and a store that cannot join, e.g. one of a different retention — is
// forwarded to on its own.
//
// Concurrency: membership mutates only under the fabricator's write lock;
// deliver runs under the read lock (epoch execution). The fan
// pointer itself is stable for the subplan's lifetime and its destinations
// are read live, so the compiled epoch program that captured it stays valid
// across member churn — the whole point: attach/detach without recompiling
// anything.
type fanOut struct {
	ids   []string
	sinks []stream.Processor
	// writes is what deliver writes to: the member sinks in attach order,
	// minus every result store whose ring an earlier entry already writes.
	writes []stream.Processor
}

// deliver hands every distinct destination, once, the batch whose tuples
// are src[pos[0]], src[pos[1]], … — where the compiled epoch program's rows
// are materialized, and the one place the fabricator writes a result ring.
// When the fan writes only result stores the rows go from src straight into
// their rings; otherwise they are gathered into *rows (scratch the caller
// recycles) and b, completed with them, is processed by each destination.
func (f *fanOut) deliver(b stream.Batch, src []stream.Tuple, pos []uint32, rows *[]stream.Tuple) error {
	if f.resultRings() == len(f.writes) {
		for _, w := range f.writes {
			if err := w.(*stream.ResultStore).ProcessAt(src, pos); err != nil {
				return err
			}
		}
		return nil
	}
	*rows = gatherRows(*rows, src, pos)
	b.Tuples = *rows
	for _, w := range f.writes {
		if err := w.Process(b); err != nil {
			return err
		}
	}
	return nil
}

// add registers a member's sink, sharing a resident ring when it can.
func (f *fanOut) add(id string, sink stream.Processor) {
	f.ids = append(f.ids, id)
	f.sinks = append(f.sinks, sink)
	f.addWrite(sink, true)
}

// addWrite makes sink a destination of deliver unless it is a result store
// on a ring some destination already writes; with join set, a store that is
// not may first be rebound onto one.
func (f *fanOut) addWrite(sink stream.Processor, join bool) {
	if h, ok := sink.(*stream.ResultStore); ok {
		for _, w := range f.writes {
			if lead, ok := w.(*stream.ResultStore); ok && (h.SharesRing(lead) || join && h.Join(lead)) {
				return
			}
		}
	}
	f.writes = append(f.writes, sink)
}

// remove detaches a member's sink; false when the id is not a member. A
// result store is closed here, under the fabricator's write lock: on a
// shared ring it would otherwise go on receiving the stream of a query it no
// longer belongs to. When it was the store its ring is written through, the
// write passes to the next surviving store on that ring.
func (f *fanOut) remove(id string) bool {
	for i, got := range f.ids {
		if got != id {
			continue
		}
		gone := f.sinks[i]
		f.ids = slices.Delete(f.ids, i, i+1)
		f.sinks = slices.Delete(f.sinks, i, i+1)
		if h, ok := gone.(*stream.ResultStore); ok {
			h.Close()
			if !f.writesThrough(h) {
				return true
			}
		}
		clear(f.writes)
		f.writes = f.writes[:0]
		for _, s := range f.sinks {
			f.addWrite(s, false)
		}
		return true
	}
	return false
}

// writesThrough reports whether h itself is a destination of deliver.
func (f *fanOut) writesThrough(h *stream.ResultStore) bool {
	for _, w := range f.writes {
		if lead, ok := w.(*stream.ResultStore); ok && lead == h {
			return true
		}
	}
	return false
}

// check verifies that deliver reaches every member exactly once: each
// result-store destination is a member's own store, no two destinations
// share a ring, every member store is on exactly one destination's ring, and
// every other sink is a destination of its own.
func (f *fanOut) check() error {
	others, rings := 0, 0
	for _, s := range f.sinks {
		h, ok := s.(*stream.ResultStore)
		if !ok {
			others++
			continue
		}
		n := 0
		for _, w := range f.writes {
			if lead, ok := w.(*stream.ResultStore); ok && h.SharesRing(lead) {
				n++
			}
		}
		if n != 1 {
			return fmt.Errorf("member store's ring is written %d times per batch", n)
		}
	}
	for _, w := range f.writes {
		h, ok := w.(*stream.ResultStore)
		if !ok {
			continue
		}
		rings++
		if !slices.ContainsFunc(f.sinks, func(s stream.Processor) bool {
			m, ok := s.(*stream.ResultStore)
			return ok && m == h
		}) {
			return fmt.Errorf("ring written through a store that is not a member's")
		}
	}
	if len(f.writes) != others+rings {
		return fmt.Errorf("%d write destinations for %d rings and %d other sinks", len(f.writes), rings, others)
	}
	return nil
}

// resultRings counts the distinct result-store rings the fan writes.
func (f *fanOut) resultRings() int {
	n := 0
	for _, w := range f.writes {
		if _, ok := w.(*stream.ResultStore); ok {
			n++
		}
	}
	return n
}

// SharedStats snapshots the fabricator's subplan-sharing accounting for
// /status and the churn tests.
type SharedStats struct {
	// Subplans is the number of distinct fabricated subplans live right now:
	// what epoch cost scales with, not the resident query count.
	Subplans int
	// SharedSubplans counts subplans with ≥ 2 attached queries — the
	// /status "sharedPrefixes" figure.
	SharedSubplans int
	// Queries is the resident query count across all subplans.
	Queries int
	// SharedQueries counts queries attached to a subplan with ≥ 2 members.
	SharedQueries int
	// Attaches is the lifetime number of insertions absorbed by an already
	// fabricated subplan (no new operators, no program recompilation).
	Attaches uint64
	// ResultRings is the number of distinct result-store rings the subplans
	// write — what result memory and per-epoch store writes scale with. It
	// equals Subplans when every query's sink is a result store of one
	// retention, and Queries when nothing is shared.
	ResultRings int
}

// SharedGroupInfo describes one live shared subplan.
type SharedGroupInfo struct {
	// Key is the canonical CrAQL key the subplan is deduplicated under.
	Key string
	// Refs is the number of queries currently attached.
	Refs int
}

// SharedGroup looks up the live shared subplan for a canonical CrAQL key
// (see craql.CanonicalKey); false when no query with that normal form is
// resident.
func (f *Fabricator) SharedGroup(key string) (SharedGroupInfo, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sp, ok := f.shared[key]
	if !ok {
		return SharedGroupInfo{}, false
	}
	return SharedGroupInfo{Key: key, Refs: len(sp.fan.ids)}, true
}

// SharedStats snapshots subplan-sharing accounting.
func (f *Fabricator) SharedStats() SharedStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := SharedStats{Queries: len(f.queries), Attaches: f.sharedAttaches}
	for _, sp := range f.distinctStates() {
		st.Subplans++
		st.ResultRings += sp.fan.resultRings()
		if n := len(sp.fan.ids); n >= 2 {
			st.SharedSubplans++
			st.SharedQueries += n
		}
	}
	return st
}

// distinctStates returns the distinct subplan states across f.queries (a
// shared subplan appears once). Callers hold f.mu.
func (f *Fabricator) distinctStates() []*queryState {
	seen := make(map[*queryState]bool, len(f.queries))
	out := make([]*queryState, 0, len(f.queries))
	for _, lq := range f.queries {
		if !seen[lq.sp] {
			seen[lq.sp] = true
			out = append(out, lq.sp)
		}
	}
	return out
}

// checkShared verifies the sharing bookkeeping: every live query is a
// member of its subplan's fan and every fan member is a live query of that
// subplan, each fan writes its members exactly once, and the shared index
// holds exactly the live subplans under their keys. Called by
// CheckInvariants with f.mu held.
func (f *Fabricator) checkShared() error {
	for id, lq := range f.queries {
		if !slices.Contains(lq.sp.fan.ids, id) {
			return fmt.Errorf("topology: query %s missing from subplan %s fan", id, lq.sp.tapID)
		}
	}
	indexed := 0
	for _, sp := range f.distinctStates() {
		for _, id := range sp.fan.ids {
			if lq, ok := f.queries[id]; !ok || lq.sp != sp {
				return fmt.Errorf("topology: subplan %s fan member %s is not a live query of it", sp.tapID, id)
			}
		}
		if err := sp.fan.check(); err != nil {
			return fmt.Errorf("topology: subplan %s fan: %w", sp.tapID, err)
		}
		if sp.key != "" {
			if got, ok := f.shared[sp.key]; !ok || got != sp {
				return fmt.Errorf("topology: subplan %s not indexed under its key %q", sp.tapID, sp.key)
			}
			indexed++
		}
	}
	if len(f.shared) != indexed {
		return fmt.Errorf("topology: shared index holds %d subplans, %d of them live", len(f.shared), indexed)
	}
	return nil
}
