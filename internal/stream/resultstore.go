package stream

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// DefaultRetention is the per-query tuple retention used when a ResultStore
// is built with a non-positive capacity.
const DefaultRetention = 1 << 16

// ring is one acquired stream: the bounded buffer of the most recent
// `retention` tuples a subplan fabricated, written once per batch however
// many queries read it. Positions are monotonic cursors — the i-th tuple ever
// appended lives at cursor i — and every ResultStore attached to the ring
// views it through its own origin (see ResultStore).
//
// mu guards every field, and every field of the handles attached to the
// ring.
type ring struct {
	mu        sync.Mutex
	retention int
	buf       []Tuple // allocated by the first non-empty append; a frozen copy holds only what its handles can see
	head      int     // buf index of the oldest retained tuple
	size      int     // retained tuples (≤ len(buf))
	first     uint64  // cursor of the oldest retained tuple
	total     uint64  // cursor one past the newest tuple
	batches   uint64
	// live counts the attached handles that are not closed. Only a live
	// handle appends, so a ring whose last handle closed never changes again.
	live int
	// parked lists the handles with a waiter channel (notify != nil); the
	// next non-empty append closes them all.
	parked []*ResultStore
	// frozen lists the handles closed since the last append. Their view must
	// stay what it was at Close, so the next append first moves them onto a
	// copy of what they can still see (release).
	frozen []*ResultStore
}

// ResultStore is the bounded, cursor-addressable sink that terminates every
// query pipeline in the serving engine: a query's handle on the acquired
// stream of its subplan. The stream itself — the ring of the most recent
// `retention` tuples — exists once per subplan; a handle records the ring
// cursor at which it attached and its own closed state, and every observable
// is exactly that of a private store created at the moment of attachment.
// Cursor 0 of a handle is the first tuple fabricated after it attached; older
// tuples are overwritten and accounted as drops rather than accumulated
// without bound, so a query nobody reads costs no memory of its own.
//
// Readers own their cursors and page forward with ReadFrom; a reader that
// falls more than `retention` tuples behind observes an explicit drop count
// instead of silently missing data. Writers never block on readers.
//
// A store built by NewResultStore starts on a ring of its own, which
// allocates nothing proportional to retention until the first tuple arrives.
// Join rebinds a fresh store onto another store's ring; the fabricator does
// so when a query joins a resident subplan.
//
// ResultStore is safe for concurrent use by one or more writers and any
// number of readers.
type ResultStore struct {
	// r is the ring the handle reads; it changes when Join rebinds a fresh
	// handle and when a closed handle is moved onto its frozen copy. The
	// fields below are guarded by the mutex of the ring r points at (lock).
	r           atomic.Pointer[ring]
	base        uint64 // ring cursor at attach: the handle's cursor 0
	baseBatches uint64 // ring batch count at attach
	closed      bool
	notify      chan struct{} // lazily created by Wait, closed on append / Close
}

// NewResultStore returns an empty store retaining up to `retention` tuples
// (DefaultRetention when retention ≤ 0).
func NewResultStore(retention int) *ResultStore {
	if retention <= 0 {
		retention = DefaultRetention
	}
	s := &ResultStore{}
	s.r.Store(&ring{retention: retention, live: 1})
	return s
}

// lock returns the handle's ring with its mutex held. The ring can change
// while a caller waits for the mutex, hence the re-check.
func (s *ResultStore) lock() *ring {
	for {
		r := s.r.Load()
		r.mu.Lock()
		if s.r.Load() == r {
			return r
		}
		r.mu.Unlock()
	}
}

// span returns the handle's view of r in its own cursors: the oldest
// retained position (== tuples evicted from its view) and the end.
func (s *ResultStore) span(r *ring) (first, total uint64) {
	if r.first > s.base {
		first = r.first - s.base
	}
	return first, r.total - s.base
}

// joinMu serializes Join: it is the one place two ring mutexes nest, and
// with joins serialized the nesting cannot form a cycle.
var joinMu sync.Mutex

// Join rebinds s onto leader's ring, so the two (and every store already on
// that ring) share one buffer written once per batch; from then on s behaves
// as a private store created at this instant would. It reports false, and
// changes nothing, unless s is fresh — open, nothing ever written to it, no
// other open store on its ring — leader is open and both have the same
// retention.
func (s *ResultStore) Join(leader *ResultStore) bool {
	joinMu.Lock()
	defer joinMu.Unlock()
	old := s.lock()
	defer old.mu.Unlock()
	if s.closed || old.live != 1 || old.batches != 0 || leader.r.Load() == old {
		return false
	}
	r := leader.lock()
	defer r.mu.Unlock()
	if leader.closed || r.retention != old.retention {
		return false
	}
	s.base, s.baseBatches = r.total, r.batches
	r.live++
	if s.notify != nil {
		// Waiters re-park on the new ring.
		close(s.notify)
		s.notify = nil
		old.parked = nil
	}
	s.r.Store(r)
	return true
}

// tupleMinBytes is the smallest encoding of a ring tuple.
const tupleMinBytes = 5*8 + 1

// EncodeShared appends the ring the handles read — its retention, cursors,
// batch count and retained tuples — and every handle's attach point to w.
// The handles must all be open and on one ring. A subplan's ring holds only
// tuples of its attribute, so no tuple's attribute is written (DecodeShared
// takes it as an argument). The ring's lock is held while its tuples stream
// into w, so nothing is copied first.
func EncodeShared(w *codec.Writer, handles []*ResultStore) {
	if len(handles) == 0 {
		w.Fail(errors.New("stream: encoding a ring with no handles"))
		return
	}
	r := handles[0].lock()
	defer r.mu.Unlock()
	for _, h := range handles {
		if h.r.Load() != r || h.closed {
			w.Fail(errors.New("stream: encoding handles that do not share one open ring"))
			return
		}
	}
	w.Uvarint(uint64(r.retention))
	w.Uvarint(r.total)
	w.Uvarint(r.batches)
	w.Uvarint(uint64(r.size))
	// The retained tuples are at most two contiguous runs around the wrap.
	wrap := min(r.head+r.size, len(r.buf))
	for _, run := range [2][]Tuple{r.buf[r.head:wrap], r.buf[:r.size-(wrap-r.head)]} {
		for i := range run {
			tp := &run[i]
			w.Uint64(tp.ID)
			w.Float64s(tp.T, tp.X, tp.Y, tp.Value)
			w.Int(tp.Sensor)
		}
	}
	for _, h := range handles {
		w.Uvarint(h.base)
		w.Uvarint(h.baseBatches)
	}
}

// DecodeShared restores what EncodeShared wrote as n open handles on one
// ring, which must have the given retention (≤ 0 means DefaultRetention).
func DecodeShared(rd *codec.Reader, attr string, retention, n int) []*ResultStore {
	if retention <= 0 {
		retention = DefaultRetention
	}
	r := &ring{live: n}
	if got := rd.Uvarint(); got != uint64(retention) {
		rd.Failf("ring retention %d, the session's is %d", got, retention)
		return nil
	}
	r.retention = retention
	r.total, r.batches = rd.Uvarint(), rd.Uvarint()
	size := rd.Uvarint()
	if size > uint64(retention) || size > r.total || size > uint64(rd.Remaining()/tupleMinBytes) {
		rd.Failf("ring of %d retains %d of %d tuples", retention, size, r.total)
		return nil
	}
	r.size = int(size)
	r.first = r.total - size
	if r.size > 0 {
		r.buf = make([]Tuple, retention)
		for i := range r.buf[:r.size] {
			r.buf[i] = Tuple{ID: rd.Uint64(), Attr: attr, T: rd.Float64(), X: rd.Float64(), Y: rd.Float64(), Value: rd.Float64(), Sensor: rd.Int()}
		}
	}
	out := make([]*ResultStore, 0, n)
	for i := 0; i < n; i++ {
		h := &ResultStore{base: rd.Uvarint(), baseBatches: rd.Uvarint()}
		if h.base > r.total || h.baseBatches > r.batches {
			rd.Failf("handle attached at %d/%d past the ring's %d/%d", h.base, h.baseBatches, r.total, r.batches)
			return nil
		}
		h.r.Store(r)
		out = append(out, h)
	}
	if rd.Err() != nil {
		return nil
	}
	return out
}

// SharesRing reports whether s and o read the same ring, so that a batch
// written through either reaches both.
func (s *ResultStore) SharesRing(o *ResultStore) bool { return s.r.Load() == o.r.Load() }

// Retention returns the store's capacity in tuples.
func (s *ResultStore) Retention() int { return s.r.Load().retention }

// Process implements Processor: the batch's tuples are copied into the ring
// (the batch may be built on an arena buffer that is recycled after the
// call), evicting the oldest tuples when full. Every store on the ring sees
// the batch; a fan-out writes each ring through one of its stores only.
func (s *ResultStore) Process(b Batch) error {
	r := s.lock()
	defer r.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	r.append(b.Tuples)
	return nil
}

// ProcessAt is Process for a batch that exists only as positions: tuple i of
// the batch is src[pos[i]]. The fabricator's merge phase ends here — the rows
// it selected are copied once, from the epoch's input run straight into the
// ring, and are never materialized anywhere else.
func (s *ResultStore) ProcessAt(src []Tuple, pos []uint32) error {
	r := s.lock()
	defer r.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	a, b := r.admit(len(pos))
	pos = pos[len(pos)-len(a)-len(b):]
	for i := range a {
		a[i] = src[pos[i]]
	}
	pos = pos[len(a):]
	for i := range b {
		b[i] = src[pos[i]]
	}
	return nil
}

// append adds one batch; r.mu is held.
func (r *ring) append(in []Tuple) {
	a, b := r.admit(len(in))
	in = in[len(in)-len(a)-len(b):]
	copy(b, in[copy(a, in):])
}

// admit accounts one batch of n tuples and returns where its rows go: the at
// most two contiguous runs of buf, around the wrap point, that take the
// batch's last len(a)+len(b) tuples — all of them unless the batch is larger
// than the whole ring, of which only the tail survives. The caller fills the
// runs before releasing r.mu, which is held.
func (r *ring) admit(n int) (a, b []Tuple) {
	if len(r.frozen) > 0 {
		r.release()
	}
	r.batches++
	if n == 0 {
		return nil, nil
	}
	r.total += uint64(n)
	if r.buf == nil {
		r.buf = make([]Tuple, r.retention)
	}
	n = min(n, len(r.buf))
	idx := r.head + r.size
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	a = r.buf[idx:min(idx+n, len(r.buf))]
	b = r.buf[:n-len(a)]
	if r.size+n <= len(r.buf) {
		r.size += n
	} else {
		r.head += r.size + n - len(r.buf)
		if r.head >= len(r.buf) {
			r.head -= len(r.buf)
		}
		r.size = len(r.buf)
	}
	r.first = r.total - uint64(r.size)
	// Release parked waiters (they re-take r.mu, so they read the filled
	// runs); a channel only exists while someone waits, keeping the unwatched
	// write path allocation-free.
	for i, h := range r.parked {
		close(h.notify)
		h.notify = nil
		r.parked[i] = nil
	}
	r.parked = r.parked[:0]
	return a, b
}

// release moves the handles closed since the last append onto one frozen
// copy of the ring holding exactly what they can still see, so the append
// about to happen cannot change what a closed store reads. r.mu is held.
func (r *ring) release() {
	lo := r.total
	for _, h := range r.frozen {
		lo = min(lo, max(r.first, h.base))
	}
	snap := &ring{retention: r.retention, first: lo, total: r.total, batches: r.batches, size: int(r.total - lo)}
	snap.buf = r.copyOut(lo, snap.size, nil)
	for i, h := range r.frozen {
		h.r.Store(snap)
		r.frozen[i] = nil
	}
	r.frozen = r.frozen[:0]
}

// copyOut appends the n retained tuples starting at ring cursor c to dst, in
// at most two contiguous runs around the wrap point.
func (r *ring) copyOut(c uint64, n int, dst []Tuple) []Tuple {
	if n == 0 {
		return dst
	}
	off := r.head + int(c-r.first)
	if off >= len(r.buf) {
		off -= len(r.buf)
	}
	if run := len(r.buf) - off; n > run {
		dst = append(dst, r.buf[off:]...)
		return append(dst, r.buf[:n-run]...)
	}
	return append(dst, r.buf[off:off+n]...)
}

// ReadFrom returns the retained tuples at cursor positions ≥ cursor, up to
// `limit` of them (limit ≤ 0 means all retained), copied into dst's storage
// — pass a buffer borrowed from the arena (BorrowTuples) to keep reads
// allocation-free. It returns the filled slice, the cursor to resume from,
// and how many tuples the reader missed because they were evicted before it
// arrived (cursor < oldest retained). A cursor beyond the end of the stream
// is clamped: the read is empty and next is the end cursor.
//
// The returned slice aliases dst's storage, not the ring, so it stays valid
// while the writer keeps appending.
func (s *ResultStore) ReadFrom(cursor uint64, limit int, dst []Tuple) (out []Tuple, next uint64, dropped uint64) {
	r := s.lock()
	defer r.mu.Unlock()
	first, total := s.span(r)
	if cursor < first {
		dropped = first - cursor
		cursor = first
	}
	if cursor > total {
		cursor = total
	}
	avail := int(total - cursor)
	if limit <= 0 || limit > avail {
		limit = avail
	}
	return r.copyOut(s.base+cursor, limit, dst[:0]), cursor + uint64(limit), dropped
}

// Tuples returns a copy of every retained tuple, oldest first. It is the
// bounded replacement for Collector.Tuples: the slice holds at most
// Retention() tuples regardless of how many were fabricated.
func (s *ResultStore) Tuples() []Tuple {
	out, _, _ := s.ReadFrom(0, 0, nil)
	return out
}

// Len returns the number of retained tuples.
func (s *ResultStore) Len() int {
	r := s.lock()
	defer r.mu.Unlock()
	first, total := s.span(r)
	return int(total - first)
}

// Total returns the number of tuples appended since the store attached; it
// is also the cursor one past the newest tuple.
func (s *ResultStore) Total() uint64 {
	r := s.lock()
	defer r.mu.Unlock()
	return r.total - s.base
}

// Dropped returns how many of the store's tuples have been evicted from the
// ring; it is also the cursor of the oldest retained tuple.
func (s *ResultStore) Dropped() uint64 {
	r := s.lock()
	defer r.mu.Unlock()
	first, _ := s.span(r)
	return first
}

// ErrStoreClosed is returned by Wait when the store was closed.
var ErrStoreClosed = errors.New("stream: result store closed")

// Wait blocks until the stream has grown past cursor (a tuple at position
// cursor exists, possibly already evicted), the store is closed
// (ErrStoreClosed), or ctx is done (its error). It is the push primitive
// under streaming delivery: a streamer alternates ReadFrom and Wait.
func (s *ResultStore) Wait(ctx context.Context, cursor uint64) error {
	for {
		r := s.lock()
		if r.total-s.base > cursor {
			r.mu.Unlock()
			return nil
		}
		if s.closed {
			r.mu.Unlock()
			return ErrStoreClosed
		}
		if s.notify == nil {
			s.notify = make(chan struct{})
			r.parked = append(r.parked, s)
		}
		ch := s.notify
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close marks the store finished: subsequent Process calls through it fail
// with ErrClosed and its blocked Wait calls return ErrStoreClosed. Reads
// remain valid and keep returning what the store held when it closed. Other
// stores on the same ring are unaffected — nothing of theirs wakes, and the
// ring keeps filling for them; the ring is finished once its last store
// closes. Closing an already-closed store is a no-op.
func (s *ResultStore) Close() {
	r := s.lock()
	defer r.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
		i := slices.Index(r.parked, s)
		r.parked = slices.Delete(r.parked, i, i+1)
	}
	if r.live--; r.live > 0 {
		r.frozen = append(r.frozen, s)
	} else {
		// Nothing can append any more: every store closed on this ring since
		// the last append keeps reading it as it is.
		r.frozen = nil
	}
}
