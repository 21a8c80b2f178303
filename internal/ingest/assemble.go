package ingest

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/stream"
)

// Epoch assembly turns the tuples a drain detached from the queue — in
// arrival order, attributes interleaved — into one contiguous (T, ID)-sorted
// run per attribute, attributes in sorted name order. It runs on memory no
// producer can reach (see Queue.detach), never under the queue's lock, and
// it never compares or moves a 64-byte stream.Tuple while ordering: it
// orders one 8-byte word per tuple and moves each tuple exactly once, in the
// final gather.
//
// The word is the tuple's event time, as its timeKey's offset from the
// epoch start's, above its ⌈log₂ n⌉-bit arrival index. One pass over the
// tuples finds each one's attribute slot, stores its time key and checks
// that IDs never fall in arrival order; one pass over the keys alone makes
// the words and checks the rest: no T below the epoch start, and no offset
// too wide to leave the index its bits. Then arrival order is ID order on
// every T-tie, and a word's order is its tuple's (T, ID) order. The checks
// are borrows and ORs folded into registers, not branches. A counting
// scatter groups the words by attribute, one counting pass and one
// insertion sweep order each run (radixSortWords), and the gather reads the
// arrival index off each word's low bits. Times that rise strictly in
// arrival order need none of it: nothing is sorted, whatever the IDs or the
// window. Any other epoch the words cannot order — late carry-over below the
// start, IDs that descend, a window near zero too wide for the index bits —
// is ordered by 16-byte keys instead (orderByKeys), which also look at the
// IDs.

// sortKey is one tuple's ordering image on the fallback path: w is the word
// being sorted on — the tuple's timeKey, or its ID during the ID phase of a
// run whose IDs do not already ascend — idx the tuple's arrival position in
// the detached slice.
type sortKey struct {
	w   uint64
	idx uint32
}

// timeKey maps a finite event time onto a uint64 whose unsigned order is the
// float order: non-negative values get the sign bit set, negative values are
// complemented. −0 is folded onto +0 first — CompareTuples sees them as
// equal (and falls through to the ID), so their keys must be equal too.
func timeKey(t float64) uint64 {
	b := math.Float64bits(t + 0) // −0 + 0 is +0
	return b ^ (uint64(int64(b)>>63) | 1<<63)
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
// sized to the largest epoch actually drained, never to the queue's Buffer;
// keys and tmp only to the largest epoch the words could not order, and only
// until an epoch they do: a session whose first windows sit near zero, or
// that sees a late carry-over now and then, does not keep them.
type assembler struct {
	runs  []attrRun
	order []int             // run indices in sorted attribute-name order
	index map[string]uint32 // name → run, populated only past linearAttrs
	// words holds one word per tuple, grouped into the runs a.runs
	// describes; its low idxBits bits are the tuple's arrival index. spare
	// is the scatter buffer, slots each tuple's attribute slot in arrival
	// order.
	words, spare []uint64
	slots        []uint32
	idxBits      uint
	keys, tmp    []sortKey
	hist         []uint32 // the counting passes' bucket counts: at most 1<<maxBucketBits per pass, nested passes stacked
}

// lookup returns name's slot in the attribute table, adding it on first
// sight. Up to linearAttrs names it first looks for the very string (the
// same bytes at the same address, which is what an interning decoder hands
// over), then for equal bytes.
func (a *assembler) lookup(name string) uint32 {
	if len(a.runs) <= linearAttrs {
		for i := range a.runs {
			if sameString(a.runs[i].name, name) {
				return uint32(i)
			}
		}
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

// sameString reports whether a and b are the same string in memory — the
// same bytes at the same address — which implies they are equal without
// reading the bytes.
func sameString(a, b string) bool {
	return unsafe.StringData(a) == unsafe.StringData(b) && len(a) == len(b)
}

// orderKeys computes the assembly order of src, the due tuples of the epoch
// starting at t0: afterwards a.words lists every tuple's arrival index (in
// its low a.idxBits bits), grouped into the runs a.runs describes —
// attributes by name, (T, ID) within each, (T, ID) ties in arrival order.
func (a *assembler) orderKeys(src []stream.Tuple, t0 float64) {
	clear(a.runs) // drop last epoch's name references
	a.runs = a.runs[:0]
	clear(a.index)
	n := len(src)
	a.words = slices.Grow(a.words[:0], n)[:n]
	a.spare = slices.Grow(a.spare[:0], n)[:n]
	a.slots = slices.Grow(a.slots[:0], n)[:n]
	s := uint(bits.Len(uint(max(n, 1) - 1)))
	a.idxBits = s

	// The one pass over the tuples finds each tuple's attribute slot, counts
	// each run, stores the tuple's time key as its word and notes, as a
	// borrow, whether any ID is below the one that arrived before it.
	// Decoders intern attribute names, so the tuples of one attribute carry
	// the very same string: while a tuple's name is the current attribute's
	// string or the previous one's (a frame that interleaves two
	// attributes), by data pointer and length, the inner loop takes its slot
	// without comparing bytes or calling anything. Any other name goes back
	// out to lookup, which also settles content-equal names at other
	// addresses.
	var cur, prev uint32
	var curP, prevP *byte
	curL, prevL := 0, -1 // no string is −1 long: prev matches nothing until set
	var descent, lastID uint64
	runs, words, slots := a.runs, a.words, a.slots
	for i := 0; i < n; {
		name := src[i].Attr
		r := a.lookup(name)
		if runs = a.runs; r != cur {
			prev, prevP, prevL = cur, curP, curL
			cur = r
		}
		curP, curL = unsafe.StringData(name), len(name)
		j := i
		for ; j < n; j++ {
			tp := &src[j]
			if p, l := unsafe.StringData(tp.Attr), len(tp.Attr); p != curP || l != curL {
				if p != prevP || l != prevL {
					break
				}
				cur, prev = prev, cur
				curP, prevP, curL, prevL = prevP, curP, prevL, curL
			}
			runs[cur].n++
			slots[j] = cur
			words[j] = timeKey(tp.T)
			_, b := bits.Sub64(tp.ID, lastID, 0)
			descent |= b
			lastID = tp.ID
		}
		i = j
	}
	// A pass over the keys alone writes each one's word — its offset from
	// t0's above its arrival index — into a.spare, leaving the keys where they
	// are for the 16-byte path, and folds in the rest of what decides how the
	// epoch is ordered: the OR of every offset (its highest bit must leave s
	// bits free), a borrow if any T lies below t0, and one if any T is at or
	// below the one that arrived before it.
	k0 := timeKey(t0)
	var offs, below, unordered, lastK uint64
	spare := a.spare
	for i, k := range words {
		d, b := bits.Sub64(k, k0, 0)
		_, un := bits.Sub64(k, lastK+1, 0)
		offs |= d
		below |= b
		unordered |= un
		lastK = k
		spare[i] = d<<s | uint64(i)
	}

	a.order = a.order[:0]
	for i := range a.runs {
		a.order = append(a.order, i)
	}
	slices.SortFunc(a.order, func(x, y int) int { return cmp.Compare(a.runs[x].name, a.runs[y].name) })
	at := 0
	for _, ri := range a.order {
		a.runs[ri].start, a.runs[ri].next = at, at
		at += a.runs[ri].n
	}
	// Times that rise strictly in arrival order leave nothing to sort and no
	// tie for an ID to break: every run is in order as it arrived, and the
	// words' low bits name it whether or not their offsets fit.
	if unordered != 0 && (below|descent != 0 || bits.Len64(offs)+int(s) > 64) {
		a.orderByKeys(src)
		return
	}
	a.keys, a.tmp = nil, nil
	a.words, a.spare = a.spare, a.words
	if len(a.runs) > 1 {
		// Counting scatter: each attribute's words become one contiguous
		// run, still in arrival order within it.
		for i, w := range a.words {
			r := &a.runs[slots[i]]
			a.spare[r.next] = w
			r.next++
		}
		a.words, a.spare = a.spare, a.words
	}
	if unordered != 0 {
		diff := offs<<s | (uint64(1)<<s - 1)
		for _, r := range a.runs {
			a.radixSortWords(a.words[r.start:r.start+r.n], a.spare[r.start:r.start+r.n], diff, 0)
		}
	}
}

// orderByKeys orders an epoch the words cannot: a.words still holds every
// tuple's time key in arrival order, which the counting scatter groups by
// attribute as 16-byte keys; orderRun orders each run, and the arrival
// indices it settles on go back into a.words for the gather.
func (a *assembler) orderByKeys(src []stream.Tuple) {
	n := len(src)
	a.keys = slices.Grow(a.keys[:0], n)[:n]
	a.tmp = slices.Grow(a.tmp[:0], n)[:n]
	if len(a.runs) == 1 {
		for i, k := range a.words {
			a.keys[i] = sortKey{w: k, idx: uint32(i)}
		}
	} else {
		for i, k := range a.words {
			r := &a.runs[a.slots[i]]
			a.keys[r.next] = sortKey{w: k, idx: uint32(i)}
			r.next++
		}
	}
	for _, r := range a.runs {
		a.orderRun(src, a.keys[r.start:r.start+r.n], a.tmp[r.start:r.start+r.n])
	}
	for i, k := range a.keys {
		a.words[i] = uint64(k.idx)
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
	dst = slices.Grow(dst, len(a.words))[:base+len(a.words)]
	out := dst[base:]
	mask := uint64(1)<<a.idxBits - 1
	for i, w := range a.words {
		out[i] = src[w&mask]
	}
	return dst
}

// maxBucketBits caps the counting pass's digit: 4096 buckets of uint32 counts
// stay inside the L1 cache beside the keys being scattered.
const maxBucketBits = 12

// insertionBound is the largest bucket ordered by insertion. The counting
// pass makes about as many buckets as there are keys, so a bucket holds a
// handful unless the run's times cluster; up to this size shifting keys
// (16 bytes, or 8 for words, which keep the same bound) costs less than
// another counting pass.
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

// radixSortWords is radixSortKeys on a run of packed words, which are their
// own sort key and all distinct (their low bits are the arrival index).
func (a *assembler) radixSortWords(words, tmp []uint64, diff uint64, base int) {
	top := bits.Len64(diff)
	width := min(bits.Len(uint(len(words)-1)), maxBucketBits, top)
	shift, mask := uint(top-width), uint64(1)<<width-1
	a.hist = slices.Grow(a.hist[:base], 1<<width)[:base+1<<width]
	hist := a.hist[base:]
	clear(hist)
	for _, w := range words {
		hist[w>>shift&mask]++
	}
	sum := uint32(0)
	for b, c := range hist {
		hist[b], sum = sum, sum+c
	}
	for _, w := range words {
		b := w >> shift & mask
		tmp[hist[b]] = w
		hist[b]++
	}
	lo := 0
	for _, end := range hist {
		hi := int(end)
		if hi-lo > insertionBound {
			bucket := tmp[lo:hi]
			var d uint64
			for _, w := range bucket {
				d |= w ^ bucket[0]
			}
			a.radixSortWords(bucket, words[lo:hi], d, base+len(hist))
		}
		lo = hi
	}
	for i, w := range tmp {
		j := i
		for ; j > 0 && words[j-1] > w; j-- {
			words[j] = words[j-1]
		}
		words[j] = w
	}
}
