package ingest

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

// oracleAssemble is the epoch assembly this package shipped before the
// key-ordered one, kept as the differential oracle: sort the due tuples as
// whole structs by (T, ID), stable-sort again with the attribute as the
// major key, cut the runs. The first sort was stream.SortTuples (pdqsort);
// it is the stable variant here because the oracle also has to pin the tie
// rule — on unique (T, ID) keys, the only input the old code was
// deterministic on, the two agree.
func oracleAssemble(due []stream.Tuple, t0, t1 float64, region geom.Rect) map[string]stream.Batch {
	if len(due) == 0 {
		return nil
	}
	tuples := slices.Clone(due)
	slices.SortStableFunc(tuples, stream.CompareTuples)
	sort.SliceStable(tuples, func(i, j int) bool { return tuples[i].Attr < tuples[j].Attr })
	window := geom.NewWindow(t0, t1, region)
	out := make(map[string]stream.Batch)
	start := 0
	for i := 1; i <= len(tuples); i++ {
		if i == len(tuples) || tuples[i].Attr != tuples[start].Attr {
			out[tuples[start].Attr] = stream.Batch{
				Attr:   tuples[start].Attr,
				Window: window,
				Tuples: tuples[start:i],
			}
			start = i
		}
	}
	return out
}

// queueModel is the queue's hand-over reduced to what assembly and the ack
// depend on: which accepted tuples are pending, in arrival order, which
// client IDs they hold (the duplicate window: the first occurrence wins, and
// an ID leaves when its tuple drains), and which of them a drain at t1 takes.
// It is independent of Queue.detach and of the queue's high-water mark on
// purpose, so the differential test also covers the swap and partition paths
// and both forms of the window.
type queueModel struct {
	late     LatePolicy
	pending  []stream.Tuple
	ids      map[uint64]bool
	closedTo float64
	seq      uint64
}

func newQueueModel(late LatePolicy) *queueModel {
	return &queueModel{late: late, ids: map[uint64]bool{}, closedTo: math.Inf(-1)}
}

// push returns the ack the queue owes the batch, watermark aside. The
// generated tuples are otherwise valid, so only a gateway-range ID rejects.
func (m *queueModel) push(tuples []stream.Tuple) Ack {
	var ack Ack
	for _, tp := range tuples {
		switch {
		case tp.ID >= GatewayIDBase:
			ack.Rejected++
			continue
		case m.ids[tp.ID]:
			ack.Duplicates++
			continue
		case tp.T < m.closedTo && m.late == LateDrop:
			ack.LateDropped++
			continue
		case tp.T < m.closedTo:
			ack.Late++
		}
		if tp.ID == 0 {
			m.seq++
			tp.ID = GatewayIDBase | m.seq
		} else {
			m.ids[tp.ID] = true
		}
		m.pending = append(m.pending, tp)
		ack.Accepted++
	}
	ack.Pending = len(m.pending)
	return ack
}

func (m *queueModel) drain(t1 float64) []stream.Tuple {
	var due, kept []stream.Tuple
	for _, tp := range m.pending {
		if tp.T < t1 {
			due = append(due, tp)
			delete(m.ids, tp.ID)
		} else {
			kept = append(kept, tp)
		}
	}
	m.pending = kept
	if t1 > m.closedTo {
		m.closedTo = t1
	}
	return due
}

// cloneEpoch deep-copies an Acquire result out of the source's reused
// storage.
func cloneEpoch(in map[string]stream.Batch) map[string]stream.Batch {
	if in == nil {
		return nil
	}
	out := make(map[string]stream.Batch, len(in))
	for k, b := range in {
		b.Tuples = slices.Clone(b.Tuples)
		out[k] = b
	}
	return out
}

// sameEpoch compares two epochs tuple for tuple. Event times are compared
// by bit pattern as well: −0 and +0 order as equal but are distinct values
// the assembly must carry through unchanged, and == would not tell them
// apart.
func sameEpoch(a, b map[string]stream.Batch) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d attributes vs %d", len(a), len(b))
	}
	for attr, ba := range a {
		bb, ok := b[attr]
		if !ok {
			return fmt.Errorf("attribute %q missing", attr)
		}
		if ba.Attr != bb.Attr || ba.Window != bb.Window || len(ba.Tuples) != len(bb.Tuples) {
			return fmt.Errorf("attribute %q: header %q %v n=%d vs %q %v n=%d",
				attr, ba.Attr, ba.Window, len(ba.Tuples), bb.Attr, bb.Window, len(bb.Tuples))
		}
		for i := range ba.Tuples {
			x, y := ba.Tuples[i], bb.Tuples[i]
			if x != y || math.Float64bits(x.T) != math.Float64bits(y.T) {
				return fmt.Errorf("attribute %q tuple %d: %v (T bits %x) vs %v (T bits %x)",
					attr, i, x, math.Float64bits(x.T), y, math.Float64bits(y.T))
			}
		}
	}
	return nil
}

// assemblyCase parameterizes one randomized differential run; the fuzz
// target maps its arguments onto the same struct.
// tModes and idModes are the numbers of event-time and ID shapes genEpoch
// knows.
const tModes, idModes = 10, 10

type assemblyCase struct {
	seed   int64
	n      int   // tuples per epoch
	attrs  int   // distinct attributes
	tMode  uint8 // event-time shape, see genEpoch
	idMode uint8 // ID shape, see genEpoch
	late   LatePolicy
	base   float64 // the run's epochs are [base+k, base+k+1) for k in −3..2
	pushes int     // pushes per epoch; 0 splits each epoch at random
}

// genEpoch builds the pushes of the epoch [e, e+1): n tuples split into a
// few batches. tMode 0 spreads T uniformly over the window, 1 snaps it to
// eighths (heavy ties), 2 arrives presorted, 3 keeps a quarter for the next
// epoch (partial drain) and sends another quarter into the past (late), 4
// collapses T onto ±0 in the epoch around zero. The last three are built
// against the ordering's bucket pass: 5 gives every tuple but the first the
// same T up to its low mantissa byte (one bucket, the first tuple's bucket
// aside), 6 splits T into two clusters 2⁴⁰ ulps apart with a few ulps of
// jitter each, 7 draws T from the subnormals, ±0 and the ulps next to the
// epoch's bounds. 8 is the end-to-end benchmark's corpus: T = e + k/1000
// for k drawn from 0..999. 9 puts four of every five tuples at the one
// instant e + 1/2 and the fifth at e − 1/2, late: one long T-tie, and with
// LateNextEpoch a second one carried in below t0. idMode 0 assigns
// ascending IDs, 1 descending, 2 shuffled, 3 leaves them to the gateway, 4
// mixes gateway and producer IDs. The rest are
// built against the duplicate window: 5 redelivers the ID one and three
// tuples back (in the same batch or an earlier one) and the previous epoch's
// last ID, 6
// ascends through the first half and descends through the second (the
// window indexes mid-push), 7 keeps a quarter of the tuples pending past the
// drain and redelivers IDs of the previous epoch's kept and drained tuples,
// 8 counts up across 2⁶³ to 2⁶⁴ − 1 (the gateway's half is rejected), and 9
// mixes gateway IDs with producer IDs that descend.
func genEpoch(rng *rand.Rand, c assemblyCase, e float64, nextID *uint64) [][]stream.Tuple {
	tuples := make([]stream.Tuple, c.n)
	for i := range tuples {
		var t float64
		switch c.tMode % tModes {
		case 0:
			t = e + rng.Float64()
		case 1:
			t = e + float64(rng.Intn(8))/8
		case 2:
			t = e + float64(i)/float64(c.n)
		case 3:
			t = e - 0.5 + rng.Float64()*2
		case 4:
			t = e + float64(rng.Intn(3))/4
			if t == 0 && rng.Intn(2) == 0 {
				t = math.Copysign(0, -1)
			}
		case 5:
			t = e + 0.75
			if i > 0 {
				t = math.Float64frombits(math.Float64bits(e+0.25)&^0xff | uint64(rng.Intn(256)))
			}
		case 6:
			t = math.Float64frombits(math.Float64bits(e+0.25)&^0xff + uint64(rng.Intn(2))<<40 + uint64(rng.Intn(4)))
		case 7:
			switch k := rng.Intn(4); {
			case k == 0 && (e == 0 || e == -1):
				t = math.Copysign(float64(rng.Intn(5))*math.SmallestNonzeroFloat64, e) // ±0 included
			case k == 1:
				t = math.Nextafter(e+1, e) // the last instant of the epoch
			case k == 2:
				t = e
			default:
				t = e + float64(rng.Intn(4))/4
			}
		case 8:
			t = e + float64(rng.Intn(1000))/1000
		case 9:
			t = e + 0.5
			if i%5 == 4 {
				t = e - 0.5
			}
		}
		tuples[i] = stream.Tuple{
			Attr:   fmt.Sprintf("a%02d", rng.Intn(c.attrs)),
			T:      t,
			X:      rng.Float64() * 8,
			Y:      rng.Float64() * 8,
			Value:  rng.NormFloat64(),
			Sensor: rng.Intn(64),
		}
	}
	base := *nextID
	*nextID += uint64(c.n)
	prev := base - uint64(c.n) // the previous epoch's base, when base ≥ n
	for i := range tuples {
		id := base + uint64(i) + 1
		switch c.idMode % idModes {
		case 1:
			id = base + uint64(c.n-i)
		case 3:
			id = 0
		case 4:
			if i%3 == 0 {
				id = 0
			}
		case 5:
			switch i % 5 {
			case 2:
				id-- // the ID just before: the largest pending one
			case 4:
				id -= 3
			}
			if i == 0 && base > 0 {
				id = base
			}
		case 6:
			if i >= c.n/2 {
				id = base + uint64(c.n-(i-c.n/2))
			}
		case 7:
			switch {
			case i%4 == 2:
				tuples[i].T++
			case i%4 == 1 && base >= uint64(c.n) && i+1 < c.n:
				id = prev + uint64(i+1) + 1 // the previous epoch's kept tuple i+1
			case i%4 == 3 && base >= uint64(c.n):
				id = prev + uint64(i-3) + 1 // the previous epoch's drained tuple i−3
			}
		case 8:
			id = GatewayIDBase - uint64(c.n/2) + uint64(i)
			if i == c.n-1 {
				id = math.MaxUint64
			}
		case 9:
			id = base + uint64(c.n-i)
			if i%3 == 0 {
				id = 0
			}
		}
		tuples[i].ID = id
	}
	if c.idMode%idModes == 2 {
		rng.Shuffle(len(tuples), func(i, j int) { tuples[i].ID, tuples[j].ID = tuples[j].ID, tuples[i].ID })
	}
	var batches [][]stream.Tuple
	for len(tuples) > 0 {
		k := 1 + rng.Intn(len(tuples))
		if c.pushes > 0 {
			k = min(len(tuples), (c.n+c.pushes-1)/c.pushes)
		}
		batches = append(batches, tuples[:k])
		tuples = tuples[k:]
	}
	return batches
}

// checkAssembly drives a Queue + QueueSource and the model + oracle through
// the same pushes over six epochs around c.base (with base 0 they start
// below zero, so negative event times and the ±0 boundary are in play) and
// fails on the first ack or epoch that differs.
func checkAssembly(c assemblyCase) error {
	region := geom.NewRect(0, 0, 8, 8)
	q := NewQueue(Config{Late: c.late, Region: region, Buffer: 1 << 20})
	src, err := NewQueueSource(q, region)
	if err != nil {
		return err
	}
	model := newQueueModel(c.late)
	rng := rand.New(rand.NewSource(c.seed))
	nextID := uint64(0)
	for e := c.base - 3; e < c.base+3; e++ {
		for i, batch := range genEpoch(rng, c, e, &nextID) {
			ack, err := q.Push(batch, math.NaN())
			if err != nil {
				return err
			}
			want := model.push(batch)
			want.Watermark = ack.Watermark
			if ack != want {
				return fmt.Errorf("epoch [%g,%g) push %d: ack %+v, model %+v", e, e+1, i, ack, want)
			}
		}
		got, err := src.Acquire(e, e+1)
		if err != nil {
			return err
		}
		want := oracleAssemble(model.drain(e+1), e, e+1, region)
		if err := sameEpoch(got, want); err != nil {
			return fmt.Errorf("epoch [%g,%g): %w", e, e+1, err)
		}
		if pend := q.Stats().Pending; pend != len(model.pending) {
			return fmt.Errorf("epoch [%g,%g): %d pending, model has %d", e, e+1, pend, len(model.pending))
		}
	}
	return nil
}

// TestEpochAssemblyMatchesOracle is the randomized differential test of the
// key-ordered assembly against the retained two-sort oracle.
func TestEpochAssemblyMatchesOracle(t *testing.T) {
	seed := int64(1)
	for _, n := range []int{1, 7, 33, 300, 5000} {
		// The full mode × mode matrix runs at the small sizes; the others
		// take its diagonal.
		full := n == 7 || n == 33 || n == 300
		for _, attrs := range []int{1, 2, linearAttrs + 8} {
			for tMode := uint8(0); tMode < tModes; tMode++ {
				for idMode := uint8(0); idMode < idModes; idMode++ {
					if !full && idMode%tModes != tMode {
						continue
					}
					late := LatePolicy(seed % 2)
					c := assemblyCase{seed: seed, n: n, attrs: attrs, tMode: tMode, idMode: idMode, late: late}
					seed++
					if err := checkAssembly(c); err != nil {
						t.Fatalf("%+v: %v", c, err)
					}
				}
			}
		}
	}
	// Far from zero, where the word path runs: the benchmark corpus's shape at
	// its sizes (64 pushes of 256, one push of two interleaved attributes);
	// windows on both sides of 4096 = 2¹², the exponent step; T = t0 and
	// T = Nextafter(t1, t0) (tMode 7); carry-over below t0, which the words
	// cannot order; gateway and mixed IDs; and, near zero, n on both sides
	// of the point where the offset's bits and the index bits fill the word
	// — 4096/4097 over [1, 2), 16384/16385 over [4, 8).
	for _, c := range []assemblyCase{
		{n: 16384, attrs: 1, tMode: 8, base: 5000, pushes: 64},
		{n: 4096, attrs: 2, tMode: 8, base: 5000, pushes: 1},
		{n: 4096, attrs: 2, tMode: 8, idMode: 3, base: 4096},
		{n: 1000, attrs: 3, tMode: 7, base: 4096},
		{n: 1000, attrs: 3, tMode: 7, idMode: 2, base: 4096, late: LateNextEpoch},
		{n: 1000, attrs: 2, tMode: 3, base: 5000, late: LateNextEpoch},
		{n: 1000, attrs: 2, tMode: 8, idMode: 4, base: 5000},
		{n: 1000, attrs: linearAttrs + 8, tMode: 1, idMode: 1, base: -5000},
		{n: 4096, attrs: 1, base: 0},
		{n: 4097, attrs: 1, base: 0},
		{n: 16384, attrs: 1, base: 5, pushes: 64},
		{n: 16385, attrs: 2, base: 5, pushes: 64},
	} {
		c.seed = seed
		seed++
		if err := checkAssembly(c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
}

// TestWordFitBoundary pins where the words fit as the key pass builds them,
// where refit rebuilds them and where the tie pass reorders what they leave
// tied, on both sides, against a stable (T, ID) sort. Times spread over
// [1, 2) reach the window's last instant, whose offset needs all 52
// mantissa bits and leaves 12 for the index: 4096 tuples fit and 4097 drop
// a bit, so times a few ulps apart that arrive descending share words the
// tie pass must reorder although the IDs ascend; over [4, 5) 50 bits leave
// 14, so 16384 fit and 16385 drop one. Equal IDs leave arrival order to
// break the T-ties; mixed gateway and producer IDs fall and need the tie
// pass; a T below t0 is refitted; every T at t0 is an empty offset. Times
// that rise strictly in arrival order are left as they arrived whatever the
// IDs, the window or t0. The tie pass's own edges: groups of insertionBound
// tuples at one T with descending IDs (insertion) and of one more (words
// from the IDs); one instant whose IDs span the gateway and producer ranges
// (ID words that drop bits, then a second level); late carry-over with
// T-ties and descending IDs; and 16385 tuples on the thousandths of [0, 1),
// where refit drops bits, with shuffled IDs.
func TestWordFitBoundary(t *testing.T) {
	ascending := func(i int) uint64 { return uint64(i + 1) }
	// tieRuns gives each attribute runs of size tuples at one T: the two
	// attributes alternate, so 2·size consecutive tuples share it.
	tieRuns := func(size int) func(rng *rand.Rand, i, n int, t0 float64) float64 {
		return func(rng *rand.Rand, i, n int, t0 float64) float64 { return t0 + float64(i/(2*size))/8 }
	}
	descending := func(n int) func(i int) uint64 { return func(i int) uint64 { return uint64(n - i) } }
	perm := rand.New(rand.NewSource(3)).Perm(16385)
	for _, c := range []struct {
		name string
		t0   float64
		n    int
		id   func(i int) uint64
		t    func(rng *rand.Rand, i, n int, t0 float64) float64
	}{
		{"n=4096@1", 1, 4096, ascending, nil},
		{"n=4097@1", 1, 4097, ascending, nil},
		{"n=16384@4", 4, 16384, ascending, nil},
		{"n=16385@4", 4, 16385, ascending, nil},
		{"n=4097@1/ulps", 1, 4097, ascending, func(rng *rand.Rand, i, n int, t0 float64) float64 {
			switch i {
			case n / 2:
				return math.Nextafter(t0+1, t0)
			case n/2 + 1:
				return t0
			}
			return math.Float64frombits(math.Float64bits(t0+0.5) + uint64((n-i)/2%8))
		}},
		{"equalIDs@5000", 5000, 3000, func(int) uint64 { return 7 }, nil},
		{"mixedIDs@5000", 5000, 3000, func(i int) uint64 {
			if i%3 == 0 {
				return GatewayIDBase | uint64(i)
			}
			return uint64(i + 1)
		}, nil},
		{"below@5000", 5000, 3000, ascending, func(rng *rand.Rand, i, n int, t0 float64) float64 {
			if i == n/3 {
				return math.Nextafter(t0, 0)
			}
			return t0 + float64(rng.Intn(1000))/1000
		}},
		{"allAtT0@5000", 5000, 3000, ascending, func(rng *rand.Rand, i, n int, t0 float64) float64 { return t0 }},
		{"rising/descendingIDs/from-below@1", 1, 5000, func(i int) uint64 { return uint64(5000 - i) },
			func(rng *rand.Rand, i, n int, t0 float64) float64 { return t0 - 0.5 + float64(i)/float64(n) }},
		{"tieRuns=insertionBound@5000", 5000, 8 * insertionBound, descending(8 * insertionBound), tieRuns(insertionBound)},
		{"tieRuns=insertionBound+1@5000", 5000, 8 * (insertionBound + 1), descending(8 * (insertionBound + 1)), tieRuns(insertionBound + 1)},
		{"oneInstant/mixedIDs@5000", 5000, 3000, func(i int) uint64 {
			if i%3 == 0 {
				return GatewayIDBase | uint64(3000-i)
			}
			return uint64(3000 - i)
		}, func(rng *rand.Rand, i, n int, t0 float64) float64 { return t0 + 0.5 }},
		{"late/ties/descendingIDs@5000", 5000, 3000, descending(3000), func(rng *rand.Rand, i, n int, t0 float64) float64 {
			if i%16 == 0 {
				return t0 - 0.5 + float64(rng.Intn(20))/1000
			}
			return t0 + float64(rng.Intn(1000))/1000
		}},
		{"n=16385@0/thousandths/shuffledIDs", 0, 16385, func(i int) uint64 { return uint64(perm[i] + 1) }, nil},
	} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		src := make([]stream.Tuple, c.n)
		for i := range src {
			src[i] = stream.Tuple{ID: c.id(i), Attr: [2]string{"rain", "temp"}[i%2], X: 1, Y: 1}
			if c.t != nil {
				src[i].T = c.t(rng, i, c.n, c.t0)
			} else {
				src[i].T = c.t0 + float64(rng.Intn(1000))/1000
				if i == c.n/2 {
					src[i].T = math.Nextafter(c.t0+1, c.t0) // the widest offset in the window
				}
			}
		}
		var a assembler
		a.orderKeys(src, c.t0)
		got := a.gather(nil, src)
		want := slices.Clone(src)
		slices.SortStableFunc(want, func(x, y stream.Tuple) int {
			if c := cmp.Compare(x.Attr, y.Attr); c != 0 {
				return c
			}
			return stream.CompareTuples(x, y)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: assembly order differs from a stable (attribute, T, ID) sort", c.name)
		}
	}
	// A T so far below t0 that its offset wraps to below 2⁶³: beside one
	// index bit the wrapped offset would fit, so only the below-t0 check
	// sends the epoch to refit.
	src := []stream.Tuple{{ID: 1, Attr: "rain", T: 5000.5}, {ID: 2, Attr: "rain", T: -1}}
	var a assembler
	a.orderKeys(src, 5000)
	if got := a.gather(nil, src); got[0].ID != 2 {
		t.Fatalf("far below t0: T=%g first, want T=-1", got[0].T)
	}
}

// FuzzEpochAssembly lets the fuzzer pick the case; the seed corpus is the
// corner of the property test's matrix each mode first appears in, plus the
// shapes the word path turns on.
func FuzzEpochAssembly(f *testing.F) {
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(int64(mode)+1, uint16(200), uint8(3), mode, mode, mode%2 == 0, int16(0))
	}
	f.Add(int64(99), uint16(2000), uint8(linearAttrs+3), uint8(3), uint8(4), true, int16(0))
	// The bucket pass's corners: one bucket, two far clusters, the subnormals
	// and ±0, at run sizes either side of insertionBound and at a 4096-key run
	// (one attribute: 12 bucket bits).
	for i, n := range []uint16{0, 1, insertionBound - 2, insertionBound - 1, insertionBound, 3 * insertionBound, 4095} {
		for tMode := uint8(5); tMode < tModes; tMode++ {
			f.Add(int64(100+i), n, uint8(i%2), tMode, uint8(i)%5, i%2 == 0, int16(0))
		}
	}
	// The duplicate window's shapes: redelivery, IDs that stop ascending,
	// pending IDs across a partial drain, and IDs around 2⁶³.
	for mode := uint8(5); mode < idModes; mode++ {
		f.Add(int64(mode)+1, uint16(200), uint8(2), mode%tModes, mode, mode%2 == 0, int16(0))
	}
	// The word path's edges (see TestEpochAssemblyMatchesOracle): the
	// benchmark corpus's shape far from zero, up to 16384 tuples; windows
	// either side of 4096 = 2¹²; T = t0 and Nextafter(t1, t0); carry-over
	// below t0; gateway and mixed IDs; and n either side of the point where
	// the offset's bits and the index bits fill the word.
	f.Add(int64(200), uint16(16383), uint8(0), uint8(8), uint8(0), false, int16(5000))
	f.Add(int64(201), uint16(4095), uint8(1), uint8(8), uint8(0), false, int16(5000))
	f.Add(int64(202), uint16(4095), uint8(1), uint8(8), uint8(3), false, int16(4096))
	f.Add(int64(203), uint16(999), uint8(2), uint8(7), uint8(0), false, int16(4096))
	f.Add(int64(204), uint16(999), uint8(1), uint8(3), uint8(0), true, int16(5000))
	f.Add(int64(205), uint16(999), uint8(1), uint8(8), uint8(4), false, int16(-5000))
	f.Add(int64(206), uint16(4095), uint8(0), uint8(0), uint8(0), false, int16(0))
	f.Add(int64(207), uint16(4096), uint8(0), uint8(0), uint8(0), false, int16(0))
	f.Add(int64(208), uint16(16383), uint8(0), uint8(0), uint8(0), false, int16(5))
	f.Add(int64(209), uint16(16384), uint8(1), uint8(0), uint8(0), false, int16(5))
	// The tie pass's edges (see TestWordFitBoundary): one instant holding
	// insertionBound tuples and one more with descending IDs (n = 60 and 61
	// put four fifths there), one instant whose IDs mix the gateway's and the
	// producers' ranges, late carry-over with T-ties and descending IDs, and
	// 16385 tuples on thousandths around zero with shuffled IDs.
	f.Add(int64(210), uint16(59), uint8(0), uint8(9), uint8(1), false, int16(5000))
	f.Add(int64(211), uint16(60), uint8(0), uint8(9), uint8(1), false, int16(5000))
	f.Add(int64(212), uint16(999), uint8(1), uint8(9), uint8(9), false, int16(5000))
	f.Add(int64(213), uint16(999), uint8(1), uint8(9), uint8(1), true, int16(5000))
	f.Add(int64(214), uint16(16384), uint8(0), uint8(8), uint8(2), false, int16(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, attrs, tMode, idMode uint8, lateNext bool, base int16) {
		c := assemblyCase{seed: seed, n: 1 + int(n)%(1<<15), attrs: 1 + int(attrs)%40, tMode: tMode, idMode: idMode, base: float64(base)}
		if lateNext {
			c.late = LateNextEpoch
		}
		if err := checkAssembly(c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	})
}

// TestTimeKeyOrder pins the key transform against the float order it
// replaces, including the −0 rule.
func TestTimeKeyOrder(t *testing.T) {
	vals := []float64{-math.MaxFloat64, -1e9, -2, -1.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0.25, 1, 1.5, 2, 1e9, math.MaxFloat64}
	for i, a := range vals {
		for j, b := range vals {
			ka, kb := timeKey(a), timeKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Fatalf("timeKey(%g)=%x vs timeKey(%g)=%x disagree with the float order (i=%d j=%d)", a, ka, b, kb, i, j)
			}
		}
	}
}

// TestRadixSortKeysShapes drives the ordering pass alone through the time-key
// distributions that decide which of its steps run — a spread run, every key
// in one bucket, two clusters 2⁴⁰ ulps apart, one bucket past the insertion
// bound among small ones, all keys equal, keys that differ in the lowest bit
// only, negative and subnormal times, full-width keys — packed into words
// the way refit packs them: the offset from the run's smallest key, less the
// low bits that do not fit, above the arrival index. It compares with a
// comparison sort, and where no bit was dropped it checks that the words
// came out in the keys' stable order, so equal keys out of arrival order
// fail too.
func TestRadixSortKeysShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := timeKey(5.25)
	shapes := []struct {
		name string
		w    func(i, n int) uint64
	}{
		{"spread", func(i, n int) uint64 { return timeKey(5 + rng.Float64()) }},
		{"onebucket", func(i, n int) uint64 {
			if i == n/2 {
				return timeKey(5.75) // the key that stretches the diff mask
			}
			return base&^0xff | uint64(rng.Intn(256))
		}},
		{"twoclusters", func(i, n int) uint64 { return base + uint64(rng.Intn(2))<<40 + uint64(rng.Intn(64)) }},
		{"onebig", func(i, n int) uint64 {
			if i%3 == 0 {
				return timeKey(5 + rng.Float64())
			}
			return base + uint64(rng.Intn(1<<20)) // two thirds of the run in one bucket
		}},
		{"allequal", func(i, n int) uint64 { return base }},
		{"lowbit", func(i, n int) uint64 { return base | uint64(rng.Intn(2)) }},
		{"descending", func(i, n int) uint64 { return base + uint64(n-i)<<30 }},
		{"negative", func(i, n int) uint64 { return timeKey(-5 - rng.Float64()) }},
		{"aroundzero", func(i, n int) uint64 {
			return timeKey(math.Copysign(float64(rng.Intn(4))*math.SmallestNonzeroFloat64, float64(rng.Intn(2))-0.5))
		}},
		{"fullwidth", func(i, n int) uint64 { return rng.Uint64() }},
	}
	sizes := []int{1, 2, 3, insertionBound - 1, insertionBound, insertionBound + 1, insertionBound + 2,
		3 * insertionBound, 1<<maxBucketBits - 1, 1 << maxBucketBits, 1<<maxBucketBits + 1, 3 << maxBucketBits}
	var a assembler
	for _, shape := range shapes {
		for _, n := range sizes {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = shape.w(i, n)
			}
			s := uint(bits.Len(uint(n - 1)))
			k0 := slices.Min(ks)
			drop := max(bits.Len64(slices.Max(ks)-k0)+int(s)-64, 0)
			words := make([]uint64, n)
			var diff uint64
			for i, k := range ks {
				words[i] = (k-k0)>>drop<<s | uint64(i)
				diff |= words[i] ^ words[0]
			}
			want := slices.Clone(words)
			slices.Sort(want)
			if diff>>s != 0 {
				a.radixSortWords(words, make([]uint64, n), diff, 0)
			}
			if !slices.Equal(words, want) {
				t.Fatalf("%s n=%d: words out of order", shape.name, n)
			}
			if drop != 0 {
				continue
			}
			for j := 1; j < n; j++ {
				x, y := words[j-1]&(1<<s-1), words[j]&(1<<s-1)
				if ks[x] > ks[y] || ks[x] == ks[y] && x > y {
					t.Fatalf("%s n=%d: tuple %d (key %x) sorts before tuple %d (key %x)", shape.name, n, x, ks[x], y, ks[y])
				}
			}
		}
	}
}

// TestRadixSortWordsShapes drives the ordering pass alone through the word
// distributions that decide which of its steps run: packed words (a time
// offset above an arrival index, so all distinct) whose offsets spread, sit
// in one bucket but for a straggler (within 2⁸ or 2³⁶ of each other), form
// two far clusters, put two thirds of the run in one bucket, nest a bucket
// past insertionBound per pass, tie (only the index varies), are all zero,
// differ in the lowest bit only, descend or fill the word, at sizes around
// insertionBound and the counting pass's 12-bit cap, and a run where one
// bucket holds exactly insertionBound words or one more. It compares with a
// comparison sort.
func TestRadixSortWordsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := []struct {
		name string
		off  func(i, n int, s uint) uint64
	}{
		{"spread", func(i, n int, s uint) uint64 { return uint64(rng.Intn(1000)) << 30 }},
		{"onebucket", func(i, n int, s uint) uint64 {
			if i == n/2 {
				return 1 << 40
			}
			return uint64(rng.Intn(256))
		}},
		{"onebucket/wide", func(i, n int, s uint) uint64 {
			if i == n/2 {
				return 1 << 40
			}
			return rng.Uint64() & (1<<36 - 1)
		}},
		{"twoclusters", func(i, n int, s uint) uint64 { return uint64(rng.Intn(2))<<40 + uint64(rng.Intn(64)) }},
		{"nested", func(i, n int, s uint) uint64 {
			if i < 4 {
				return 1 << (47 - 11*uint(i))
			}
			return uint64(rng.Intn(8))
		}},
		{"onebig", func(i, n int, s uint) uint64 {
			if i%3 == 0 {
				return uint64(rng.Int63n(1 << 48))
			}
			return 1<<47 + uint64(rng.Intn(1<<20)) // two thirds of the run in one bucket
		}},
		{"ties", func(i, n int, s uint) uint64 { return 5 }},
		{"allequal", func(i, n int, s uint) uint64 { return 0 }},
		{"lowbit", func(i, n int, s uint) uint64 { return uint64(rng.Intn(2)) }},
		{"descending", func(i, n int, s uint) uint64 { return uint64(n-i) << 20 }},
		{"fullwidth", func(i, n int, s uint) uint64 { return rng.Uint64() >> s }},
	}
	sizes := []int{1, 2, 3, insertionBound - 1, insertionBound, insertionBound + 1,
		3 * insertionBound, 1<<maxBucketBits - 1, 1 << maxBucketBits, 1<<maxBucketBits + 1, 3 << maxBucketBits}
	var a assembler
	check := func(name string, words []uint64) {
		t.Helper()
		var diff uint64
		for _, w := range words {
			diff |= w ^ words[0]
		}
		want := slices.Clone(words)
		slices.Sort(want)
		if diff != 0 {
			a.radixSortWords(words, make([]uint64, len(words)), diff, 0)
		}
		if !slices.Equal(words, want) {
			t.Fatalf("%s n=%d: words out of order", name, len(words))
		}
	}
	for _, shape := range shapes {
		for _, n := range sizes {
			s := uint(bits.Len(uint(n - 1)))
			words := make([]uint64, n)
			for i := range words {
				words[i] = shape.off(i, n, s)<<s | uint64(i)
			}
			check(shape.name, words)
		}
	}
	// The sweep/nested boundary on 1024 words: every bucket of the 10-bit
	// digit holds one word except one that holds insertionBound or one more.
	const n = 1 << 10
	for _, size := range []int{insertionBound, insertionBound + 1} {
		for _, digit := range []uint64{0, n / 2, n - 1} {
			offs := make([]uint64, 0, n)
			for _, d := range rng.Perm(n) {
				if uint64(d) != digit && len(offs) < n-size {
					offs = append(offs, uint64(d)<<20|uint64(rng.Intn(1<<20)))
				}
			}
			for range size {
				offs = append(offs, digit<<20|uint64(rng.Intn(16)))
			}
			words := make([]uint64, n)
			for i, o := range offs {
				words[i] = o<<10 | uint64(i)
			}
			rng.Shuffle(n, func(i, j int) { words[i], words[j] = words[j], words[i] })
			check(fmt.Sprintf("bucket=%d@digit%d", size, digit), words)
		}
	}
}

// TestOrderKeysIDPhase pins the pair order where T says nothing: every tuple
// at one instant, IDs descending (or shuffled), two attributes interleaved —
// so the T passes must leave the ID phase's order alone and the remembered
// attribute slot must not mix the runs.
func TestOrderKeysIDPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, insertionBound, insertionBound + 1, 700, 1<<maxBucketBits + 3} {
		for _, shuffled := range []bool{false, true} {
			src := make([]stream.Tuple, n)
			for i := range src {
				src[i] = stream.Tuple{ID: uint64(n - i), Attr: [2]string{"rain", "temp"}[i%2], T: 2.5, X: 1, Y: 1}
			}
			if shuffled {
				rng.Shuffle(n, func(i, j int) { src[i].ID, src[j].ID = src[j].ID, src[i].ID })
			}
			var a assembler
			a.orderKeys(src, 2)
			got := a.gather(nil, src)
			want := slices.Clone(src)
			slices.SortStableFunc(want, func(x, y stream.Tuple) int {
				if c := cmp.Compare(x.Attr, y.Attr); c != 0 {
					return c
				}
				return stream.CompareTuples(x, y)
			})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d shuffled=%v: assembly order differs from (attribute, T, ID)", n, shuffled)
			}
		}
	}
}

// recordingJournal captures the queue's mutation sequence. Both hooks run
// under the queue's lock, which is also what orders the appends.
type recordingJournal struct {
	entries []journalEntry
}

type journalEntry struct {
	drain     bool
	tuples    []stream.Tuple
	watermark float64
	t1        float64
}

func (j *recordingJournal) JournalPush(tuples []stream.Tuple, watermark float64) {
	j.entries = append(j.entries, journalEntry{tuples: slices.Clone(tuples), watermark: watermark})
}

func (j *recordingJournal) JournalDrain(t1 float64) {
	j.entries = append(j.entries, journalEntry{drain: true, t1: t1})
}

// TestConcurrentPushDuringAssembly runs producers against an epoch loop
// that drains continuously — pushes land before, during and after every
// detach — and checks the three things the hand-over promises: the ack
// identity (every pushed tuple is accounted for exactly once), every
// accepted tuple appears in exactly one epoch, and replaying the journal's
// recorded effect order through a fresh queue reproduces the same epochs
// byte for byte.
func TestConcurrentPushDuringAssembly(t *testing.T) {
	for _, late := range []LatePolicy{LateDrop, LateNextEpoch} {
		t.Run(late.String(), func(t *testing.T) {
			const (
				producers = 4
				batches   = 150
				perBatch  = 16
				epochs    = 40
			)
			region := geom.NewRect(0, 0, 8, 8)
			journal := &recordingJournal{}
			q := NewQueue(Config{Late: late, Region: region, Buffer: 1 << 12, Journal: journal})
			src, err := NewQueueSource(q, region)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			acks := make([]Ack, producers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p) + 1))
					batch := make([]stream.Tuple, perBatch)
					for b := 0; b < batches; b++ {
						for i := range batch {
							id := uint64(p*batches*perBatch + b*perBatch + i + 1)
							if i == perBatch-1 && b > 0 {
								id-- // redeliver the previous tuple's ID: a duplicate while pending
							}
							batch[i] = stream.Tuple{
								ID:   id,
								Attr: [...]string{"rain", "temp", "wind"}[rng.Intn(3)],
								T:    float64(epochs) * (float64(b) + rng.Float64()*8 - 4) / batches,
								X:    rng.Float64() * 8, Y: rng.Float64() * 8,
								// A serial unique per pushed tuple (IDs are not:
								// a redelivery is accepted again once the first
								// delivery has drained).
								Value: float64(p*batches*perBatch + b*perBatch + i),
							}
						}
						if b%10 == 9 {
							batch[0].X = -1 // outside the region: rejected
						}
						ack, err := q.Push(batch, math.NaN())
						if err != nil {
							t.Error(err)
							return
						}
						a := &acks[p]
						a.Accepted += ack.Accepted
						a.Dropped += ack.Dropped
						a.LateDropped += ack.LateDropped
						a.Rejected += ack.Rejected
						a.Duplicates += ack.Duplicates
					}
				}(p)
			}
			// Once every producer is done, assert the watermark so the epoch
			// loop below cannot park forever on a horizon no tuple reached.
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				wg.Wait()
				if _, err := q.Push(nil, epochs); err != nil {
					t.Error(err)
				}
			}()
			// The epoch loop: close every epoch the moment the watermark
			// allows, so drains interleave with the pushes from first to
			// last, then one last drain of everything left.
			var got []map[string]stream.Batch
			acquire := func(t0, t1 float64) {
				out, err := src.Acquire(t0, t1)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, cloneEpoch(out))
			}
			for e := 0; e < epochs; e++ {
				if err := q.WaitReady(t.Context(), float64(e+1)); err != nil {
					t.Fatal(err)
				}
				acquire(float64(e), float64(e+1))
			}
			<-finished
			acquire(epochs, math.Inf(1))

			var total Ack
			for _, a := range acks {
				total.Accepted += a.Accepted
				total.Dropped += a.Dropped
				total.LateDropped += a.LateDropped
				total.Rejected += a.Rejected
				total.Duplicates += a.Duplicates
			}
			if sum := total.Accepted + total.Dropped + total.LateDropped + total.Rejected + total.Duplicates; sum != producers*batches*perBatch {
				t.Fatalf("ack identity: %+v sums to %d, pushed %d", total, sum, producers*batches*perBatch)
			}
			seen := map[float64]bool{}
			for _, epoch := range got {
				for _, b := range epoch {
					for i, tp := range b.Tuples {
						if seen[tp.Value] {
							t.Fatalf("tuple serial %g handed out twice", tp.Value)
						}
						seen[tp.Value] = true
						if i > 0 && stream.CompareTuples(b.Tuples[i-1], tp) > 0 {
							t.Fatalf("epoch run %q out of (T,ID) order at %d", b.Attr, i)
						}
					}
				}
			}
			if len(seen) != total.Accepted || q.Stats().Pending != 0 {
				t.Fatalf("epochs carry %d tuples, %d accepted, %d still pending", len(seen), total.Accepted, q.Stats().Pending)
			}

			// Replay the journal in its recorded order.
			rq := NewQueue(Config{Late: late, Region: region, Buffer: 1 << 12})
			rsrc, err := NewQueueSource(rq, region)
			if err != nil {
				t.Fatal(err)
			}
			var replayed []map[string]stream.Batch
			t0 := 0.0
			for _, e := range journal.entries {
				if !e.drain {
					if _, err := rq.Push(e.tuples, e.watermark); err != nil {
						t.Fatal(err)
					}
					continue
				}
				out, err := rsrc.Acquire(t0, e.t1)
				if err != nil {
					t.Fatal(err)
				}
				replayed = append(replayed, cloneEpoch(out))
				t0 = e.t1
			}
			if len(replayed) != len(got) {
				t.Fatalf("replay closed %d epochs, live run %d", len(replayed), len(got))
			}
			for i := range got {
				if err := sameEpoch(got[i], replayed[i]); err != nil {
					t.Fatalf("replayed epoch %d differs: %v", i, err)
				}
			}
			if q.Stats() != rq.Stats() {
				t.Fatalf("replayed stats %+v, live %+v", rq.Stats(), q.Stats())
			}
		})
	}
}

// TestPushWakesOnlyAtAwaitedHorizon pins the wake-up rule: a push that
// leaves the watermark short of the horizon WaitReady parked on wakes
// nobody (the parked channel stays the same, open channel), and the push
// that reaches it wakes the waiter exactly once.
func TestPushWakesOnlyAtAwaitedHorizon(t *testing.T) {
	q := NewQueue(Config{})
	done := make(chan error, 1)
	go func() { done <- q.WaitReady(t.Context(), 10) }()
	parked := func() chan struct{} {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.notify
	}
	var ch chan struct{}
	for ch == nil {
		ch = parked()
	}
	for i := 0; i < 100; i++ {
		mustPush(t, q, []stream.Tuple{obs(uint64(i+1), float64(i)/100*9.9)}, math.NaN())
		if now := parked(); now != ch {
			t.Fatalf("push %d below the awaited horizon replaced the parked channel (a wake-up)", i)
		}
		select {
		case <-ch:
			t.Fatalf("push %d below the awaited horizon closed the parked channel", i)
		case err := <-done:
			t.Fatalf("WaitReady returned early: %v", err)
		default:
		}
	}
	mustPush(t, q, []stream.Tuple{obs(1000, 10)}, math.NaN())
	if err := <-done; err != nil {
		t.Fatalf("WaitReady = %v", err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("the push that reached the horizon did not close the parked channel")
	}
	if parked() != nil {
		t.Fatal("waiter parked again after the horizon was reached")
	}
}

// TestAcquireSteadyStateAllocs gates the assembly's scratch reuse: once the
// buffers have seen an epoch of this size, push + Acquire allocates nothing —
// with ascending IDs (the duplicate window's high-water mark), with shuffled
// ones (the window indexes every epoch, and the tie pass orders IDs), on
// tied thousandths with shuffled IDs (the tie pass's insertion), with every
// 16th tuple half an epoch late (refit), and at one instant whose IDs mix
// the gateway's and the producers' ranges (the tie pass's comparison sort).
func TestAcquireSteadyStateAllocs(t *testing.T) {
	uniform := func(rng *rand.Rand, i int, epoch float64) float64 { return epoch + rng.Float64() }
	for _, c := range []struct {
		name     string
		late     LatePolicy
		shuffled bool
		gateway  bool // every other tuple leaves its ID to the gateway
		t        func(rng *rand.Rand, i int, epoch float64) float64
	}{
		{name: "shuffled=false", t: uniform},
		{name: "shuffled=true", shuffled: true, t: uniform},
		{name: "ties/shuffled", shuffled: true, t: func(rng *rand.Rand, i int, epoch float64) float64 {
			return epoch + float64(rng.Intn(1000))/1000
		}},
		{name: "late", late: LateNextEpoch, t: func(rng *rand.Rand, i int, epoch float64) float64 {
			if i%16 == 0 {
				return epoch - 0.5
			}
			return epoch + rng.Float64()
		}},
		{name: "oneinstant/gateway", gateway: true, t: func(rng *rand.Rand, i int, epoch float64) float64 { return epoch + 0.5 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			region := geom.NewRect(0, 0, 8, 8)
			q := NewQueue(Config{Region: region, Late: c.late})
			src, err := NewQueueSource(q, region)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			attrs := []string{"rain", "temp", "wind"}
			batch := make([]stream.Tuple, 1024)
			ids := make([]uint64, len(batch))
			for i := range ids {
				ids[i] = uint64(i + 1)
			}
			if c.shuffled {
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			if c.gateway {
				for i := 0; i < len(ids); i += 2 {
					ids[i] = 0
				}
			}
			epoch := 0.0
			run := func() {
				for i := range batch {
					batch[i] = stream.Tuple{ID: ids[i], Attr: attrs[i%len(attrs)], T: c.t(rng, i, epoch), X: 1, Y: 1}
				}
				if _, err := q.Push(batch, epoch+1); err != nil {
					t.Fatal(err)
				}
				out, err := src.Acquire(epoch, epoch+1)
				if err != nil || len(out) != len(attrs) {
					t.Fatalf("Acquire = %d attrs, %v", len(out), err)
				}
				epoch++
			}
			for i := 0; i < 4; i++ {
				run() // warm both swap buffers, the ID window, the words and the result map
			}
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("steady-state push + Acquire allocates %.1f times per epoch, want 0", allocs)
			}
		})
	}
}
