package pmat

import (
	"errors"
	"fmt"
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
// completion the runs are sorted and k-way merged under the deterministic
// (T, ID) order, so the merged stream is byte-identical no matter in which
// order — or from which goroutines — the inputs delivered. This is what
// lets the fabricator execute cell pipelines on a parallel worker pool while
// preserving serial-equivalent output.
type Union struct {
	stream.Base

	regions []geom.Rect
	unioned geom.Rect
	inputs  []*UnionInput

	mu      sync.Mutex
	pending map[timeKey]*pendingMerge
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

// pendingMerge accumulates one time slice's per-input runs on borrowed arena
// buffers until every input has delivered (or the slice is evicted as
// stale). runs[i] == nil means input i has not delivered yet. The window is
// the first delivery's, kept so evicted slices can still be emitted.
type pendingMerge struct {
	runs   []*stream.TupleBuffer
	nGot   int
	attr   string
	window geom.Window
	// scratch holds the non-empty run headers during the k-way merge; kept
	// on the shell so pooled reuse makes merging allocation-free.
	scratch [][]stream.Tuple
}

// pendingPool recycles pendingMerge shells (and their runs/scratch slices)
// so steady-state merging allocates nothing; the shells return to the pool
// in emitSlice via release.
var pendingPool = sync.Pool{New: func() interface{} { return &pendingMerge{} }}

func newPendingMerge(n int, b stream.Batch) *pendingMerge {
	pm := pendingPool.Get().(*pendingMerge)
	if cap(pm.runs) < n {
		pm.runs = make([]*stream.TupleBuffer, n)
	} else {
		pm.runs = pm.runs[:n]
		for i := range pm.runs {
			pm.runs[i] = nil
		}
	}
	pm.nGot = 0
	pm.attr = b.Attr
	pm.window = b.Window
	return pm
}

// release returns the shell to the pool. The runs' buffers must already be
// back in the arena (merged does this).
func (pm *pendingMerge) release() { pendingPool.Put(pm) }

// add folds one delivery into the slice; it reports whether this was the
// input's first delivery for the slice.
func (pm *pendingMerge) add(idx int, tuples []stream.Tuple) bool {
	first := pm.runs[idx] == nil
	if first {
		pm.runs[idx] = stream.BorrowTuples(len(tuples))
		pm.nGot++
	}
	pm.runs[idx].Tuples = append(pm.runs[idx].Tuples, tuples...)
	return first
}

// merged sorts each run, k-way merges them into a borrowed output buffer and
// releases the runs. The caller must Release the returned buffer after use.
func (pm *pendingMerge) merged() *stream.TupleBuffer {
	total := 0
	runs := pm.scratch[:0]
	for _, rb := range pm.runs {
		if rb == nil {
			continue
		}
		stream.SortTuples(rb.Tuples)
		runs = append(runs, rb.Tuples)
		total += len(rb.Tuples)
	}
	out := stream.BorrowTuples(total)
	out.Tuples = stream.MergeSortedRuns(out.Tuples, runs)
	for i, rb := range pm.runs {
		rb.Release()
		pm.runs[i] = nil
	}
	// Drop the run headers so the pooled shell does not pin arena backing
	// arrays across reuses.
	for i := range runs {
		runs[i] = nil
	}
	pm.scratch = runs[:0]
	return out
}

// maxPendingSlices bounds the pending-merge map: inserting beyond this limit
// force-emits the oldest incomplete slices so a long-running engine whose
// inputs occasionally skip a slice cannot leak memory.
const maxPendingSlices = 1024

// staleSlice pairs an evicted slice with its key, oldest first.
type staleSlice struct {
	key timeKey
	pm  *pendingMerge
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
		regions: append([]geom.Rect(nil), regions...),
		unioned: bb,
		pending: make(map[timeKey]*pendingMerge),
	}
	for i := range regions {
		u.inputs = append(u.inputs, &UnionInput{u: u, idx: i})
	}
	return u, nil
}

// Inputs returns the operator's input ports, in construction order.
func (u *Union) Inputs() []*UnionInput { return u.inputs }

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
	pm, ok := u.pending[key]
	if !ok {
		pm = newPendingMerge(len(u.inputs), b)
		u.pending[key] = pm
	}
	if !pm.add(idx, b.Tuples) {
		// Duplicate delivery for this slice: folded in without double
		// counting the completion.
		u.mu.Unlock()
		return nil
	}
	complete := pm.nGot == len(u.inputs)
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
	// of the pending map, so skipping any would silently drop tuples and
	// leak their borrowed runs. The first error is reported.
	var firstErr error
	for _, s := range stale {
		if err := u.emitSlice(s.key, s.pm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if complete {
		if err := u.emitSlice(key, pm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// emitSlice merges one slice's runs, emits the merged batch and returns the
// pending shell to the pool.
func (u *Union) emitSlice(key timeKey, pm *pendingMerge) error {
	out := pm.merged()
	err := u.Emit(stream.Batch{
		Attr:   pm.attr,
		Window: geom.Window{T0: key.t0, T1: key.t1, Rect: u.unioned},
		Tuples: out.Tuples,
	})
	out.Release()
	pm.release()
	return err
}

// takeStale removes and returns (oldest first) every pending slice that ends
// at or before horizon. Callers hold the owning mutex.
func takeStale(pending map[timeKey]*pendingMerge, horizon float64) []staleSlice {
	var out []staleSlice
	for k, pm := range pending {
		if k.t1 <= horizon {
			out = append(out, staleSlice{key: k, pm: pm})
			delete(pending, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.t0 < out[j].key.t0 })
	return out
}

// takeOldest removes and returns the n oldest pending slices, oldest first.
// Callers hold the owning mutex.
func takeOldest(pending map[timeKey]*pendingMerge, n int) []staleSlice {
	all := make([]staleSlice, 0, len(pending))
	for k, pm := range pending {
		all = append(all, staleSlice{key: k, pm: pm})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key.t0 < all[j].key.t0 })
	if n > len(all) {
		n = len(all)
	}
	for _, s := range all[:n] {
		delete(pending, s.key)
	}
	return all[:n]
}

// PendingSlices returns the number of time slices awaiting completion —
// useful for diagnosing stalled merge phases.
func (u *Union) PendingSlices() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.pending)
}

// Flush force-emits every incomplete slice (e.g. at shutdown when an input
// ended early). Slices are emitted in time order.
func (u *Union) Flush() error {
	u.mu.Lock()
	stale := takeOldest(u.pending, len(u.pending))
	u.mu.Unlock()
	var firstErr error
	for _, s := range stale {
		if err := u.emitSlice(s.key, s.pm); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
