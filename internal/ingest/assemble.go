package ingest

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/stream"
)

// Epoch assembly turns the tuples a drain detached from the queue — in
// arrival order, attributes interleaved — into one contiguous (T, ID)-sorted
// run per attribute, attributes in sorted name order. It runs on memory no
// producer can reach (see Queue.detach), never under the queue's lock, and
// it never compares or moves a 64-byte stream.Tuple while ordering: it
// orders 16-byte keys — one counting pass on the bits that spread a run, one
// insertion sweep over its buckets (radixSortKeys) — and moves each tuple
// exactly once, in the final gather.

// sortKey is one tuple's ordering image: w is the word being sorted on —
// the tuple's timeKey, or its ID during the ID phase of a run whose IDs do
// not already ascend — idx the tuple's arrival position in the detached
// slice, attr its slot in the epoch's attribute table.
type sortKey struct {
	w         uint64
	idx, attr uint32
}

// timeKey maps a finite event time onto a uint64 whose unsigned order is the
// float order: non-negative values get the sign bit set, negative values are
// complemented. −0 is folded onto +0 first — CompareTuples sees them as
// equal (and falls through to the ID), so their keys must be equal too.
func timeKey(t float64) uint64 {
	if t == 0 {
		return 1 << 63
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// attrRun is one attribute's share of the epoch: how many tuples and where
// its run starts in key order.
type attrRun struct {
	name           string
	n, start, next int // next is the counting scatter's write cursor
}

// linearAttrs is the attribute-table size up to which lookup probes
// linearly. Real epochs carry a handful of decoder-interned attribute names,
// where a pointer-equal string compare beats any hash; past it a map index
// keeps a hostile many-attribute batch from going quadratic.
const linearAttrs = 16

// assembler holds the reusable scratch of epoch assembly. Every slice is
// sized to the largest epoch actually drained, never to the queue's Buffer.
type assembler struct {
	runs  []attrRun
	order []int             // run indices in sorted attribute-name order
	index map[string]uint32 // name → run, populated only past linearAttrs
	keys  []sortKey
	tmp   []sortKey
	hist  []uint32 // radixSortKeys' bucket counts: at most 1<<maxBucketBits per pass, nested passes stacked
}

// lookup returns name's slot in the attribute table, adding it on first
// sight.
func (a *assembler) lookup(name string) uint32 {
	if len(a.runs) <= linearAttrs {
		for i := range a.runs {
			if a.runs[i].name == name {
				return uint32(i)
			}
		}
	} else if i, ok := a.index[name]; ok {
		return i
	}
	i := uint32(len(a.runs))
	a.runs = append(a.runs, attrRun{name: name})
	if len(a.runs) > linearAttrs {
		if a.index == nil {
			a.index = make(map[string]uint32)
		}
		if len(a.runs) == linearAttrs+1 {
			for j := range a.runs {
				a.index[a.runs[j].name] = uint32(j)
			}
		}
		a.index[name] = i
	}
	return i
}

// orderKeys computes the assembly order of src: afterwards a.keys lists
// every tuple's arrival index, grouped into the runs a.runs describes —
// attributes by name, (T, ID) within each, (T, ID) ties in arrival order.
func (a *assembler) orderKeys(src []stream.Tuple) {
	clear(a.runs) // drop last epoch's name references
	a.runs = a.runs[:0]
	clear(a.index)
	a.keys = slices.Grow(a.keys[:0], len(src))[:len(src)]
	a.tmp = slices.Grow(a.tmp[:0], len(src))[:len(src)]

	// The first pass only builds every key and counts each run. The slot of
	// the attribute seen before the current one is remembered too, so a frame
	// that interleaves two attributes looks neither up per tuple.
	var cur, prev uint32
	var curName, prevName string
	if len(src) > 0 {
		curName = src[0].Attr
		cur = a.lookup(curName)
		prev, prevName = cur, curName
	}
	for i := range src {
		tp := &src[i]
		if tp.Attr != curName {
			cur, curName, prev, prevName = prev, prevName, cur, curName
			if tp.Attr != curName {
				curName = tp.Attr
				cur = a.lookup(curName)
			}
		}
		a.runs[cur].n++
		a.keys[i] = sortKey{w: timeKey(tp.T), idx: uint32(i), attr: cur}
	}

	a.order = a.order[:0]
	for i := range a.runs {
		a.order = append(a.order, i)
	}
	if len(a.runs) > 1 {
		slices.SortFunc(a.order, func(x, y int) int { return cmp.Compare(a.runs[x].name, a.runs[y].name) })
		// Counting scatter: each attribute's keys become one contiguous run,
		// still in arrival order within it.
		at := 0
		for _, ri := range a.order {
			a.runs[ri].start, a.runs[ri].next = at, at
			at += a.runs[ri].n
		}
		for _, k := range a.keys {
			r := &a.runs[k.attr]
			a.tmp[r.next] = k
			r.next++
		}
		a.keys, a.tmp = a.tmp, a.keys
	}
	for _, r := range a.runs {
		a.orderRun(src, a.keys[r.start:r.start+r.n], a.tmp[r.start:r.start+r.n])
	}
}

// orderRun sorts one run's keys (at least one, in arrival order) by the
// (T, ID) of the tuples they name, ties in arrival order. One pass over the
// contiguous run, on local variables, learns what that takes: which bits of
// T and of ID vary at all (the highest of them is where radixSortKeys'
// bucket digit starts), whether IDs ascend in arrival order (then a stable
// sort on T alone leaves every T-tie in ID order and the ID phase is
// skipped), and whether the keys arrived fully sorted (then nothing is
// sorted at all).
func (a *assembler) orderRun(src []stream.Tuple, keys, tmp []sortKey) {
	t0, id0 := keys[0].w, src[keys[0].idx].ID
	lastT, lastID := t0, id0
	var tDiff, idDiff uint64
	sorted, idsAsc := true, true
	for _, k := range keys[1:] {
		t, id := k.w, src[k.idx].ID
		if t < lastT || (t == lastT && id < lastID) {
			sorted = false
		}
		if id < lastID {
			idsAsc = false
		}
		tDiff |= t ^ t0
		idDiff |= id ^ id0
		lastT, lastID = t, id
	}
	switch {
	case sorted:
	case idsAsc:
		// A stable sort on T alone leaves every T-tie in arrival order,
		// which here is ID order.
		a.radixSortKeys(keys, tmp, tDiff, 0)
	default:
		// LSD over the pair: order by ID first, then stably by T.
		for j := range keys {
			keys[j].w = src[keys[j].idx].ID
		}
		a.radixSortKeys(keys, tmp, idDiff, 0)
		for j := range keys {
			keys[j].w = timeKey(src[keys[j].idx].T)
		}
		a.radixSortKeys(keys, tmp, tDiff, 0)
	}
}

// gather appends src's tuples to dst in assembly order — the one place a
// tuple is copied.
func (a *assembler) gather(dst, src []stream.Tuple) []stream.Tuple {
	base := len(dst)
	dst = slices.Grow(dst, len(a.keys))[:base+len(a.keys)]
	out := dst[base:]
	for i, k := range a.keys {
		out[i] = src[k.idx]
	}
	return dst
}

// maxBucketBits caps the counting pass's digit: 4096 buckets of uint32 counts
// stay inside the L1 cache beside the keys being scattered.
const maxBucketBits = 12

// insertionBound is the largest bucket ordered by insertion. The counting
// pass makes about as many buckets as there are keys, so a bucket holds a
// handful unless the run's times cluster; up to this size shifting 16-byte
// keys costs less than another counting pass.
const insertionBound = 48

// radixSortKeys sorts keys by w, stably, using tmp (same length) as the
// scatter buffer. diff has a bit set wherever two keys of the run differ: the
// bits above its highest one cannot reorder anything — inside one epoch
// window that is the sign, the exponent and the top of T's mantissa — and the
// ⌈log₂ n⌉ bits from there down (at most maxBucketBits) are where n keys
// spread over that range tell themselves apart. One stable counting pass on
// that digit leaves the buckets in order and each bucket in arrival order.
// A bucket past insertionBound — the run's times cluster, or were built to —
// is ordered in the scatter buffer by the same pass on the bits its own keys
// differ in: those lie below the digit that put them together, which for more
// than insertionBound keys is at least six bits wide, so the passes nest at
// most 64/6 deep and the worst case is that many passes over the run, never
// quadratic. One stable insertion sweep over the whole run then orders every
// small bucket as it is copied back. The nested pass's counts sit above this
// one's in a.hist (base is where this one's begin; 0 for a run). Every step is
// stable, which is what makes the tie rule hold — keys equal in w stay in the
// order they came in — and makes the result the one permutation a stable sort
// by w has, whichever steps produced it.
func (a *assembler) radixSortKeys(keys, tmp []sortKey, diff uint64, base int) {
	if diff == 0 {
		return
	}
	top := bits.Len64(diff)
	width := min(bits.Len(uint(len(keys)-1)), maxBucketBits, top)
	shift, mask := uint(top-width), uint64(1)<<width-1
	a.hist = slices.Grow(a.hist[:base], 1<<width)[:base+1<<width]
	hist := a.hist[base:]
	clear(hist)
	for i := range keys {
		hist[keys[i].w>>shift&mask]++
	}
	sum := uint32(0)
	for b, c := range hist {
		hist[b], sum = sum, sum+c
	}
	for i := range keys {
		b := keys[i].w >> shift & mask
		tmp[hist[b]] = keys[i]
		hist[b]++
	}
	// hist[b] is now where bucket b ends. A bucket past insertionBound is
	// ordered where it lies, in tmp, with keys as its scratch; a nested pass
	// writes its counts above these — or, having outgrown a.hist, into its
	// successor — never to them.
	lo := 0
	for _, end := range hist {
		hi := int(end)
		if hi-lo > insertionBound {
			bucket := tmp[lo:hi]
			var d uint64
			for i := range bucket {
				d |= bucket[i].w ^ bucket[0].w
			}
			a.radixSortKeys(bucket, keys[lo:hi], d, base+len(hist))
		}
		lo = hi
	}
	// One insertion sweep over the whole run orders it while copying it back.
	// Every key of an earlier bucket is smaller than every key of a later
	// one, so no key moves past the start of its own bucket, and a bucket
	// already ordered costs one compare per key.
	for i := range tmp {
		k, j := tmp[i], i
		for ; j > 0 && keys[j-1].w > k.w; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}
