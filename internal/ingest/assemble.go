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
// arrival order, attributes interleaved — into one (T, ID)-sorted run per
// attribute, attributes in name order, ties in arrival order. It runs on
// memory no producer can reach (see Queue.detach), and it orders one 8-byte
// word per tuple: its time key's offset from the epoch start's, above its
// ⌈log₂ n⌉-bit arrival index. Each tuple is moved once, in the gather.
//
// One pass over the tuples finds each one's attribute slot, stores its time
// key and notes whether any ID falls in arrival order; one pass over the
// keys makes the words and checks, in registers, that they fit. An epoch
// with a T below its start, or offsets too wide for the index bits, has its
// words rebuilt by refit. A counting scatter groups the words by attribute
// and radixSortWords orders each run; orderTies then orders the words left
// equal above the index, which it needs only when an ID fell or refit
// dropped bits. Times that rise strictly in arrival order are not sorted.

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
// sized to the largest epoch actually drained, never to the queue's Buffer.
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

	// The pass over the tuples counts each run, stores each time key and
	// notes, as a borrow, an ID below the one that arrived before it.
	// Decoders intern attribute names: while a tuple's name is the current
	// or the previous attribute's string by data pointer and length (a frame
	// may interleave two attributes), the inner loop takes its slot without
	// reading bytes or calling anything. Any other name goes out to lookup.
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
	// The pass over the keys writes the words into a.spare, keeping the keys
	// for refit, and folds in the OR of every offset (it must leave s bits
	// free), a borrow if any T lies below t0, and one if any T is at or below
	// the one that arrived before it.
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
	// Times that rise strictly in arrival order leave every run in order,
	// and the words' low bits name it whether or not the offsets fit.
	dropped := false
	if unordered != 0 && (below != 0 || bits.Len64(offs)+int(s) > 64) {
		dropped = a.refit()
	}
	a.words, a.spare = a.spare, a.words
	if len(a.runs) > 1 {
		// Counting scatter: one contiguous run per attribute, in arrival order.
		for i, w := range a.words {
			r := &a.runs[slots[i]]
			a.spare[r.next] = w
			r.next++
		}
		a.words, a.spare = a.spare, a.words
	}
	if unordered == 0 {
		return
	}
	// A run whose words differ only in the index is in order as it arrived.
	// Sorted words leave T-ties, and with bits dropped near times, in arrival
	// order, which is (T, ID) order only when no ID fell and none was dropped.
	ties := descent != 0 || dropped
	for _, r := range a.runs {
		words, tmp := a.words[r.start:r.start+r.n], a.spare[r.start:r.start+r.n]
		var diff uint64
		for _, w := range words {
			diff |= w ^ words[0]
		}
		if diff>>s != 0 {
			a.radixSortWords(words, tmp, diff, 0)
		}
		if ties {
			a.orderTies(src, words, tmp)
		}
	}
}

// refit rebuilds the words from the time keys still in a.words: offsets
// from the epoch's own smallest key, without the low bits that do not fit
// beside the index. It reports whether it dropped any, which can merge
// distinct times into ties for orderTies.
func (a *assembler) refit() (dropped bool) {
	lo, hi := a.words[0], a.words[0]
	for _, k := range a.words[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	s := a.idxBits
	drop := uint(max(bits.Len64(hi-lo)+int(s)-64, 0))
	for i, k := range a.words {
		a.spare[i] = (k-lo)>>drop<<s | uint64(i)
	}
	return drop > 0
}

// orderTies puts each group of sorted words equal above the index, which
// is in arrival order, in its tuples' (T, ID) order. tmp is scratch.
func (a *assembler) orderTies(src []stream.Tuple, words, tmp []uint64) {
	s := a.idxBits
	for lo := 0; lo < len(words); {
		hi := lo + 1
		for hi < len(words) && (words[hi]^words[lo])>>s == 0 {
			hi++
		}
		if hi-lo > 1 {
			a.orderTie(src, words[lo:hi], tmp[lo:hi])
		}
		lo = hi
	}
}

// orderTie orders one tied group by (T, ID), ties in arrival order: up to
// insertionBound words by insertion, a longer group by new words made as
// refit makes them — from its time keys or, at one instant, from its IDs —
// which radixSortWords orders; orderTies recurses on their ties unless they
// are whole IDs. The gather reads only their index. Each level splits the
// group by time or narrows its IDs by at least 64 − s bits, so at one
// instant the second level fits.
func (a *assembler) orderTie(src []stream.Tuple, words, tmp []uint64) {
	s := a.idxBits
	mask := uint64(1)<<s - 1
	if len(words) <= insertionBound {
		for i := 1; i < len(words); i++ {
			w, j := words[i], i
			for tp := &src[w&mask]; j > 0 && after(&src[words[j-1]&mask], tp); j-- {
				words[j] = words[j-1]
			}
			words[j] = w
		}
		return
	}
	first := &src[words[0]&mask]
	tLo, idLo := timeKey(first.T), first.ID
	tHi, idHi := tLo, idLo
	for _, w := range words[1:] {
		tp := &src[w&mask]
		k := timeKey(tp.T)
		tLo, tHi = min(tLo, k), max(tHi, k)
		idLo, idHi = min(idLo, tp.ID), max(idHi, tp.ID)
	}
	instant := tLo == tHi
	lo, span := tLo, tHi-tLo
	if instant {
		lo, span = idLo, idHi-idLo
	}
	drop := uint(max(bits.Len64(span)+int(s)-64, 0))
	var diff uint64
	for i, w := range words {
		tp := &src[w&mask]
		key := timeKey(tp.T)
		if instant {
			key = tp.ID
		}
		words[i] = (key-lo)>>drop<<s | w&mask
		diff |= words[i] ^ words[0]
	}
	if diff>>s != 0 {
		a.radixSortWords(words, tmp, diff, 0)
	}
	if !instant || drop > 0 {
		a.orderTies(src, words, tmp)
	}
}

// after reports whether x orders after y by (T, ID) — stream.CompareTuples
// on pointers, so a comparison copies no tuple.
func after(x, y *stream.Tuple) bool {
	return x.T > y.T || x.T == y.T && x.ID > y.ID
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
// stay inside the L1 cache beside the words being scattered.
const maxBucketBits = 12

// insertionBound is the largest bucket, or tied group, ordered by insertion:
// up to it, shifting words costs less than another counting pass.
const insertionBound = 48

// radixSortWords sorts distinct words, using tmp (same length) as the
// scatter buffer. diff has a bit set wherever two words differ; one stable
// counting pass on the ⌈log₂ n⌉ bits (at most maxBucketBits) below its
// highest bit leaves the buckets in order. A bucket past insertionBound is
// ordered in tmp by the same pass on the bits its own words differ in,
// which lie below that digit of at least six bits, so passes nest at most
// 64/6 deep; one insertion sweep orders the small buckets as it copies the
// run back. A nested pass keeps its counts above this one's in a.hist (base
// is where this one's begin; 0 for a run).
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
	// hist[b] is now where bucket b ends; a nested pass never writes to it.
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
	// No word moves past the start of its bucket; an ordered one costs one
	// compare per word.
	for i, w := range tmp {
		j := i
		for ; j > 0 && words[j-1] > w; j-- {
			words[j] = words[j-1]
		}
		words[j] = w
	}
}
