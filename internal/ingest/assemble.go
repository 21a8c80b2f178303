package ingest

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stream"
)

// Epoch assembly turns the tuples a drain detached from the queue — in
// arrival order, attributes interleaved — into one contiguous (T, ID)-sorted
// run per attribute, attributes in sorted name order. It runs on memory no
// producer can reach (see Queue.detach), never under the queue's lock, and
// it never compares or moves a 64-byte stream.Tuple while ordering: it
// orders 16-byte keys with a byte-wise LSD radix sort and moves each tuple
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

// attrRun is one attribute's share of the epoch: how many tuples, where its
// run starts in key order, and what the single build pass learned about the
// keys — which bits of T and ID vary at all (only those bytes need a radix
// pass), whether IDs already ascend in arrival order (then a stable sort on
// T alone leaves every T-tie in ID order and the ID passes are skipped), and
// whether the keys arrived fully sorted (then nothing is sorted at all).
type attrRun struct {
	name           string
	n, start, next int    // next is the counting scatter's write cursor
	t0, id0        uint64 // first key, the reference for the diff masks
	lastT, lastID  uint64
	tDiff, idDiff  uint64
	sorted, idsAsc bool
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
	a.runs = append(a.runs, attrRun{name: name, sorted: true, idsAsc: true})
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
// attributes by name, (T, ID) within each, (T, ID) ties in arrival order. With byAttr
// false the whole of src is one run (Queue.Drain's attribute-blind order).
func (a *assembler) orderKeys(src []stream.Tuple, byAttr bool) {
	clear(a.runs) // drop last epoch's name references
	a.runs = a.runs[:0]
	clear(a.index)
	a.keys = slices.Grow(a.keys[:0], len(src))[:len(src)]
	a.tmp = slices.Grow(a.tmp[:0], len(src))[:len(src)]

	// One pass builds every key and everything the later steps decide on.
	cur, curName := uint32(0), ""
	if len(src) > 0 {
		if byAttr {
			curName = src[0].Attr
		}
		cur = a.lookup(curName)
	}
	for i := range src {
		tp := &src[i]
		if byAttr && tp.Attr != curName {
			curName = tp.Attr
			cur = a.lookup(curName)
		}
		r := &a.runs[cur]
		t, id := timeKey(tp.T), tp.ID
		if r.n == 0 {
			r.t0, r.id0 = t, id
		} else {
			if t < r.lastT || (t == r.lastT && id < r.lastID) {
				r.sorted = false
			}
			if id < r.lastID {
				r.idsAsc = false
			}
			r.tDiff |= t ^ r.t0
			r.idDiff |= id ^ r.id0
		}
		r.lastT, r.lastID = t, id
		r.n++
		a.keys[i] = sortKey{w: t, idx: uint32(i), attr: cur}
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
	for i := range a.runs {
		r := &a.runs[i]
		if r.sorted {
			continue
		}
		keys, tmp := a.keys[r.start:r.start+r.n], a.tmp[r.start:r.start+r.n]
		if r.idsAsc {
			// A stable sort on T alone leaves every T-tie in arrival order,
			// which here is ID order.
			radixSortKeys(keys, tmp, r.tDiff)
		} else {
			// LSD over the pair: order by ID first, then stably by T.
			for j := range keys {
				keys[j].w = src[keys[j].idx].ID
			}
			radixSortKeys(keys, tmp, r.idDiff)
			for j := range keys {
				keys[j].w = timeKey(src[keys[j].idx].T)
			}
			radixSortKeys(keys, tmp, r.tDiff)
		}
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

// radixSortKeys sorts keys by w with a stable byte-wise LSD radix sort,
// using tmp (same length) as the ping-pong buffer. Only bytes with a bit set
// in diff get a pass: a byte every key agrees on cannot reorder anything,
// and inside one epoch window the sign, exponent and top mantissa bytes of T
// are exactly that. Stability is what makes the tie rule hold — keys equal
// in w stay in the order they came in.
func radixSortKeys(keys, tmp []sortKey, diff uint64) {
	var shifts [8]uint8
	nd := 0
	for s := uint8(0); s < 64; s += 8 {
		if diff>>s&0xff != 0 {
			shifts[nd] = s
			nd++
		}
	}
	// All histograms in one read of the keys.
	var hist [8][256]uint32
	for i := range keys {
		w := keys[i].w
		for d := 0; d < nd; d++ {
			hist[d][uint8(w>>shifts[d])]++
		}
	}
	src, dst := keys, tmp
	for d := 0; d < nd; d++ {
		h := &hist[d]
		sum := uint32(0)
		for b := range h {
			h[b], sum = sum, sum+h[b]
		}
		s := shifts[d]
		for i := range src {
			b := uint8(src[i].w >> s)
			dst[h[b]] = src[i]
			h[b]++
		}
		src, dst = dst, src
	}
	if nd%2 == 1 {
		copy(keys, tmp)
	}
}
