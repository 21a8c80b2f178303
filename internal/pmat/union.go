package pmat

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/stream"
)

// Union merges MDPPs of the same attribute and rate on adjacent regions
// R*₁, R*₂, … into one process on R*₃ = ∪ R*ᵢ. The paper requires unioned
// rectangles to be adjacent with a common side of equal length so the result
// is again a rectangle; NewUnion enforces this by checking that the inputs
// tile their bounding rectangle.
//
// Batches from different inputs that cover the same time slice are aligned
// on their [T0, T1) interval and emitted as a single merged batch once every
// input has delivered its share — the synchronous merge used in the paper's
// Fig. 2(c) merge phase. Each input's share is kept as its own run; on
// completion the runs are concatenated in input order and stable-sorted once
// by the deterministic (T, ID) order, ties by input index, so the merged
// stream is byte-identical no matter in which order — or from which
// goroutines — the inputs delivered. Production epochs do not pass through
// it: the fabricator's compiled epoch program orders a subplan's tuples
// itself (RecordMerged); Union merges in the experiments and in the
// reference walk that program's tests use.
type Union struct {
	stream.Base

	unioned geom.Rect
	inputs  []*UnionInput

	mu      sync.Mutex
	pending map[timeKey]*pendingSlice
}

// UnionInput is one input port of a Union operator; upstream operators send
// the branch for the union's idx-th input region into it.
type UnionInput struct {
	u   *Union
	idx int
}

// Process implements stream.Processor.
func (in *UnionInput) Process(b stream.Batch) error { return in.u.receive(in.idx, b) }

type timeKey struct{ t0, t1 float64 }

// pendingSlice holds one time slice's per-input runs until every input has
// delivered or the slice is evicted as stale.
type pendingSlice struct {
	attr string
	runs [][]stream.Tuple // runs[i] is input i's share, in delivery order
	got  []bool           // got[i] reports whether input i has delivered
	nGot int
}

// add folds one delivery into the slice; it reports whether this was the
// input's first delivery for the slice.
func (ps *pendingSlice) add(idx int, tuples []stream.Tuple) bool {
	ps.runs[idx] = append(ps.runs[idx], tuples...)
	if ps.got[idx] {
		return false
	}
	ps.got[idx] = true
	ps.nGot++
	return true
}

// merged concatenates the runs in input order and stable-sorts them by
// stream.CompareTuples, so tuples equal in (T, ID) keep input order.
func (ps *pendingSlice) merged() []stream.Tuple {
	var out []stream.Tuple
	for _, run := range ps.runs {
		out = append(out, run...)
	}
	slices.SortStableFunc(out, stream.CompareTuples)
	return out
}

// maxPendingSlices bounds the pending-merge map: inserting beyond this limit
// force-emits the oldest incomplete slices so a long-running engine whose
// inputs occasionally skip a slice cannot leak memory.
const maxPendingSlices = 1024

// staleSlice pairs an evicted slice with its key, oldest first.
type staleSlice struct {
	key timeKey
	ps  *pendingSlice
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
	u := &Union{
		Base:    stream.NewBase(name, "U"),
		unioned: bb,
		pending: make(map[timeKey]*pendingSlice),
	}
	for i := range regions {
		u.inputs = append(u.inputs, &UnionInput{u: u, idx: i})
	}
	return u, nil
}

// Input returns the i-th input port.
func (u *Union) Input(i int) (*UnionInput, error) {
	if i < 0 || i >= len(u.inputs) {
		return nil, fmt.Errorf("pmat: union %q: no input %d", u.Name(), i)
	}
	return u.inputs[i], nil
}

// Region returns R*₃, the unioned output region.
func (u *Union) Region() geom.Rect { return u.unioned }

// RecordMerged accounts one time slice merged outside the operator: every
// input delivered its share and n tuples in all came in and went out. The
// fabricator's compiled epoch program orders a subplan's tuples without
// passing them through its U-operator and keeps its flow counters exact with
// this.
func (u *Union) RecordMerged(n int) {
	u.RecordBatchesIn(len(u.inputs), n)
	u.RecordOut(n)
}

// Process implements stream.Processor on the first input; most callers
// should use the explicit input ports instead. It exists so a two-input
// Union can sit directly in a linear chain.
func (u *Union) Process(b stream.Batch) error { return u.receive(0, b) }

func (u *Union) receive(idx int, b stream.Batch) error {
	u.RecordIn(b)
	key := timeKey{t0: b.Window.T0, t1: b.Window.T1}
	u.mu.Lock()
	ps, ok := u.pending[key]
	if !ok {
		n := len(u.inputs)
		ps = &pendingSlice{attr: b.Attr, runs: make([][]stream.Tuple, n), got: make([]bool, n)}
		u.pending[key] = ps
	}
	if !ps.add(idx, b.Tuples) {
		// Duplicate delivery for this slice: folded in without double
		// counting the completion.
		u.mu.Unlock()
		return nil
	}
	complete := ps.nGot == len(u.inputs)
	var stale []staleSlice
	if complete {
		delete(u.pending, key)
		// Slices strictly older than a completed one can no longer complete
		// in a forward-moving stream: evict them so the map stays bounded.
		stale = takeStale(u.pending, key.t0)
	} else if len(u.pending) > maxPendingSlices {
		stale = takeOldest(u.pending, len(u.pending)-maxPendingSlices)
	}
	u.mu.Unlock()
	// Emit every detached slice even when one errors: they are already out
	// of the pending map, so skipping any would silently drop tuples. The
	// first error is reported.
	var firstErr error
	for _, s := range stale {
		if err := u.emitSlice(s.key, s.ps); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if complete {
		if err := u.emitSlice(key, ps); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// emitSlice merges one slice's runs and emits the merged batch.
func (u *Union) emitSlice(key timeKey, ps *pendingSlice) error {
	return u.Emit(stream.Batch{
		Attr:   ps.attr,
		Window: geom.Window{T0: key.t0, T1: key.t1, Rect: u.unioned},
		Tuples: ps.merged(),
	})
}

// takeStale removes and returns (oldest first) every pending slice that ends
// at or before horizon. Callers hold the owning mutex.
func takeStale(pending map[timeKey]*pendingSlice, horizon float64) []staleSlice {
	var out []staleSlice
	for k, ps := range pending {
		if k.t1 <= horizon {
			out = append(out, staleSlice{key: k, ps: ps})
			delete(pending, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.t0 < out[j].key.t0 })
	return out
}

// takeOldest removes and returns the n < len(pending) oldest pending slices,
// oldest first. Callers hold the owning mutex.
func takeOldest(pending map[timeKey]*pendingSlice, n int) []staleSlice {
	all := make([]staleSlice, 0, len(pending))
	for k, ps := range pending {
		all = append(all, staleSlice{key: k, ps: ps})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key.t0 < all[j].key.t0 })
	for _, s := range all[:n] {
		delete(pending, s.key)
	}
	return all[:n]
}
