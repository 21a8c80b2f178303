package stream

import (
	"slices"
	"sync"
)

// The batch hot path recycles tuple storage through a package-level arena so
// steady-state operator execution performs no heap allocation. The ownership
// rule, which every Processor must observe, is:
//
//   - a Batch passed to Process is only valid for the duration of the call;
//   - a Processor that retains tuples beyond the call must copy them (the
//     built-in sinks — Collector, Counter, the export sinks — all do);
//   - the producer that borrowed a buffer releases it after its Emit returns.
//
// Emit is synchronous, so by the time a producer releases its buffer every
// downstream Process has completed.

// TupleBuffer is a reusable tuple slice borrowed from the package arena with
// BorrowTuples and returned with Release. Append to Tuples as usual; the
// grown slice is what returns to the arena, so buffers converge on the hot
// path's working-set size.
type TupleBuffer struct {
	Tuples []Tuple
}

// defaultBufferCap sizes freshly allocated arena buffers; borrowers asking
// for more get an exact-sized allocation that then recycles at its larger
// capacity.
const defaultBufferCap = 256

var tuplePool = sync.Pool{
	New: func() interface{} {
		return &TupleBuffer{Tuples: make([]Tuple, 0, defaultBufferCap)}
	},
}

// BorrowTuples returns an empty buffer with capacity for at least n tuples.
func BorrowTuples(n int) *TupleBuffer {
	b := tuplePool.Get().(*TupleBuffer)
	if cap(b.Tuples) < n {
		b.Tuples = make([]Tuple, 0, n)
	} else {
		b.Tuples = b.Tuples[:0]
	}
	return b
}

// Release returns the buffer to the arena. The buffer (and any Batch built
// on its Tuples) must not be used afterwards.
func (b *TupleBuffer) Release() {
	if b == nil {
		return
	}
	tuplePool.Put(b)
}

// CompareTuples is the single source of truth for the deterministic merge
// order: time first, then the unique tuple id as the tie-breaker. Because
// IDs are unique per source stream, any set of tuples has exactly one sorted
// order, making merge output independent of arrival order.
func CompareTuples(a, b Tuple) int {
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// SortTuples sorts tuples by the deterministic (T, ID) order. slices.SortFunc
// (pdqsort over the concrete type) keeps the per-epoch merge path free of
// sort.Slice's reflection overhead and closure allocation.
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, CompareTuples)
}
