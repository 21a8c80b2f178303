package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// modelStore is the reference a shared handle is held to: a private store
// created at the instant the handle attached, written the obvious way —
// everything ever appended kept in a slice, the retention window computed on
// read.
type modelStore struct {
	retention int
	all       []Tuple
	batches   uint64
	closed    bool
}

func (m *modelStore) process(in []Tuple) {
	if m.closed {
		return
	}
	m.batches++
	m.all = append(m.all, in...)
}

func (m *modelStore) dropped() uint64 { return uint64(max(0, len(m.all)-m.retention)) }

func (m *modelStore) readFrom(cursor uint64, limit int) (out []Tuple, next, dropped uint64) {
	first, total := m.dropped(), uint64(len(m.all))
	if cursor < first {
		dropped = first - cursor
		cursor = first
	}
	cursor = min(cursor, total)
	end := total
	if limit > 0 && cursor+uint64(limit) < total {
		end = cursor + uint64(limit)
	}
	return m.all[cursor:end], end, dropped
}

// sharedPair is one handle under test and its model.
type sharedPair struct {
	h *ResultStore
	m *modelStore
}

func (p sharedPair) check(t *testing.T, what string) {
	t.Helper()
	if got, want := p.h.Total(), uint64(len(p.m.all)); got != want {
		t.Fatalf("%s: Total = %d, model %d", what, got, want)
	}
	if got, want := p.h.Dropped(), p.m.dropped(); got != want {
		t.Fatalf("%s: Dropped = %d, model %d", what, got, want)
	}
	if got, want := p.h.Len(), len(p.m.all)-int(p.m.dropped()); got != want {
		t.Fatalf("%s: Len = %d, model %d", what, got, want)
	}
	if got, want := p.h.Batches(), p.m.batches; got != want {
		t.Fatalf("%s: Batches = %d, model %d", what, got, want)
	}
	if got := p.h.Retention(); got != p.m.retention {
		t.Fatalf("%s: Retention = %d, model %d", what, got, p.m.retention)
	}
}

func (p sharedPair) checkRead(t *testing.T, what string, cursor uint64, limit int) {
	t.Helper()
	got, next, dropped := p.h.ReadFrom(cursor, limit, nil)
	want, wantNext, wantDropped := p.m.readFrom(cursor, limit)
	if next != wantNext || dropped != wantDropped || len(got) != len(want) {
		t.Fatalf("%s: ReadFrom(%d, %d) = %d tuples next=%d dropped=%d, model %d tuples next=%d dropped=%d",
			what, cursor, limit, len(got), next, dropped, len(want), wantNext, wantDropped)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ReadFrom(%d, %d) tuple %d = %v, model %v", what, cursor, limit, i, got[i], want[i])
		}
	}
}

// TestSharedHandlesMatchPrivateStores runs random scripts of append, attach,
// close, paged reads and overflow past retention against handles sharing one
// ring and against a private-store model created at the same instants: every
// page, cursor, drop count and counter a handle reports — open or closed,
// however much the ring has moved on since — must be the model's.
func TestSharedHandlesMatchPrivateStores(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		retention := 1 + rnd.Intn(24)
		pairs := []sharedPair{{NewResultStore(retention), &modelStore{retention: retention}}}
		nextID := uint64(0)
		open := func() []int {
			var idx []int
			for i, p := range pairs {
				if !p.m.closed {
					idx = append(idx, i)
				}
			}
			return idx
		}
		for op := 0; op < 400; op++ {
			what := fmt.Sprintf("seed %d op %d", seed, op)
			live := open()
			switch p := rnd.Float64(); {
			case p < 0.35 && len(live) > 0: // append through any open handle, sometimes past retention, sometimes nothing
				n := rnd.Intn(retention + 2)
				switch rnd.Intn(6) {
				case 0:
					n = 0
				case 1:
					n = retention + rnd.Intn(2*retention+1)
				}
				b := storeBatch(nextID, n)
				nextID += uint64(n)
				if err := pairs[live[rnd.Intn(len(live))]].h.Process(b); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for _, q := range pairs {
					q.m.process(b.Tuples)
				}
			case p < 0.5: // attach
				h := NewResultStore(retention)
				if len(live) == 0 {
					if h.Join(pairs[rnd.Intn(len(pairs))].h) {
						t.Fatalf("%s: joined a closed store", what)
					}
					continue
				}
				if !h.Join(pairs[live[rnd.Intn(len(live))]].h) {
					t.Fatalf("%s: fresh store refused to join", what)
				}
				pairs = append(pairs, sharedPair{h, &modelStore{retention: retention}})
			case p < 0.6 && len(live) > 0: // close
				q := pairs[live[rnd.Intn(len(live))]]
				q.h.Close()
				q.m.closed = true
				if err := q.h.Process(storeBatch(0, 1)); err != ErrClosed {
					t.Fatalf("%s: Process on closed handle = %v", what, err)
				}
				if err := q.h.Wait(context.Background(), q.h.Total()); err != ErrStoreClosed {
					t.Fatalf("%s: Wait on closed handle = %v", what, err)
				}
			default: // paged read, open or closed
				q := pairs[rnd.Intn(len(pairs))]
				q.checkRead(t, what, uint64(rnd.Intn(len(q.m.all)+4)), rnd.Intn(retention+3))
			}
			for i, q := range pairs {
				q.check(t, fmt.Sprintf("%s handle %d", what, i))
			}
		}
		for i, q := range pairs {
			what := fmt.Sprintf("seed %d end handle %d", seed, i)
			q.checkRead(t, what, 0, 0)
			// Page to the end from cursor 0.
			var cursor uint64
			for {
				out, next, _ := q.h.ReadFrom(cursor, 3, nil)
				q.checkRead(t, what, cursor, 3)
				if len(out) == 0 {
					break
				}
				cursor = next
			}
		}
	}
}

// TestJoinOnlyFreshEqualRetention: a store keeps its own ring unless it is
// fresh and the retentions match.
func TestJoinOnlyFreshEqualRetention(t *testing.T) {
	lead := NewResultStore(8)
	if lead.Join(lead) {
		t.Fatal("store joined itself")
	}
	if NewResultStore(16).Join(lead) {
		t.Fatal("joined across retentions")
	}
	written := NewResultStore(8)
	if err := written.Process(storeBatch(0, 0)); err != nil {
		t.Fatal(err)
	}
	if written.Join(lead) {
		t.Fatal("a store that has received a batch joined")
	}
	closed := NewResultStore(8)
	closed.Close()
	if closed.Join(lead) || NewResultStore(8).Join(closed) {
		t.Fatal("join with a closed store")
	}
	a, b := NewResultStore(8), NewResultStore(8)
	if !a.Join(lead) || !b.Join(a) || !a.SharesRing(b) || !b.SharesRing(lead) {
		t.Fatal("fresh stores of equal retention did not end up on one ring")
	}
	if a.Join(lead) {
		t.Fatal("joined the ring it is already on")
	}
	// A leader with other open stores on its ring is not fresh either.
	if lead.Join(NewResultStore(8)) {
		t.Fatal("a store others already share joined elsewhere")
	}
}

// TestNewResultStoreAllocatesOnFirstWrite: nothing proportional to retention
// exists until a tuple arrives, and a store that joined never allocates a
// ring at all.
func TestNewResultStoreAllocatesOnFirstWrite(t *testing.T) {
	lead := NewResultStore(1 << 16)
	if err := lead.Process(storeBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	var sink *ResultStore
	perStore := testing.AllocsPerRun(20, func() {
		sink = NewResultStore(1 << 16)
		if !sink.Join(lead) {
			t.Fatal("join refused")
		}
		sink.Close()
	})
	if perStore > 3 {
		t.Fatalf("create + join + close allocates %.0f objects", perStore)
	}
	if r := NewResultStore(1 << 16).r.Load(); r.buf != nil {
		t.Fatal("constructor allocated the ring buffer")
	}
	if r := sink.r.Load(); r != lead.r.Load() {
		t.Fatal("closed handle left the live ring before any write")
	}
}

// TestSharedHandlesConcurrent runs one writer against readers parked in Wait
// on their own handles while more handles attach and close. A closed
// handle's reader ends with ErrStoreClosed having seen a gap-free prefix of
// the stream from its own cursor 0; the others keep streaming to the end;
// nobody stays parked.
func TestSharedHandlesConcurrent(t *testing.T) {
	const (
		retention = 64
		batches   = 400
		perBatch  = 7
		readers   = 8
	)
	lead := NewResultStore(retention)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup

	// read drains h until it is closed. The writer numbers tuples 0,1,2…, so
	// a handle that attached at ring cursor b must find tuple b+c at its own
	// cursor c, whatever was dropped in between; it returns how many tuples
	// the handle ever saw.
	read := func(h *ResultStore) (seen uint64, err error) {
		var cursor, base uint64
		started := false
		buf := make([]Tuple, 0, 16)
		for {
			out, next, _ := h.ReadFrom(cursor, 16, buf[:0])
			for i, tp := range out {
				pos := next - uint64(len(out)) + uint64(i)
				if !started {
					base, started = tp.ID-pos, true
				}
				if tp.ID != base+pos {
					return 0, fmt.Errorf("cursor %d holds tuple %d, want %d", pos, tp.ID, base+pos)
				}
			}
			cursor = next
			if werr := h.Wait(ctx, cursor); werr != nil {
				if errors.Is(werr, ErrStoreClosed) {
					return h.Total(), nil
				}
				return 0, werr
			}
		}
	}
	spawn := func(h *ResultStore, done func(uint64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen, err := read(h)
			if err != nil {
				t.Error(err)
				return
			}
			done(seen)
		}()
	}

	// Long-lived readers: they must see the stream to its end.
	var mu sync.Mutex
	var longSeen []uint64
	long := make([]*ResultStore, readers)
	for i := range long {
		long[i] = NewResultStore(retention)
		if !long[i].Join(lead) {
			t.Fatal("join refused")
		}
		spawn(long[i], func(n uint64) {
			mu.Lock()
			longSeen = append(longSeen, n)
			mu.Unlock()
		})
	}
	// Churn: handles attach mid-stream, park a reader, and close.
	churnDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; i < 200; i++ {
			h := NewResultStore(retention)
			if !h.Join(lead) {
				t.Error("join refused mid-stream")
				return
			}
			closed := make(chan struct{})
			spawn(h, func(uint64) { close(closed) })
			if i%3 != 0 {
				runtime.Gosched() // vary whether the reader has parked yet
			}
			h.Close()
			select {
			case <-closed:
			case <-ctx.Done():
				t.Error("reader of a closed handle never returned")
				return
			}
			// Frozen: the ring moves on, the closed handle does not.
			total := h.Total()
			if got, _, _ := h.ReadFrom(0, 0, nil); uint64(len(got))+h.Dropped() != total {
				t.Errorf("closed handle: %d retained + %d dropped != total %d", len(got), h.Dropped(), total)
				return
			}
		}
	}()
	// The writer.
	var id uint64
	for b := 0; b < batches; b++ {
		if err := lead.Process(storeBatch(id, perBatch)); err != nil {
			t.Fatal(err)
		}
		id += perBatch
		runtime.Gosched()
	}
	<-churnDone
	for _, h := range long {
		h.Close()
	}
	lead.Close()
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("timed out: a reader stayed parked")
	}
	if len(longSeen) != readers {
		t.Fatalf("%d of %d long-lived readers finished", len(longSeen), readers)
	}
	for _, n := range longSeen {
		if n != batches*perBatch {
			t.Fatalf("a long-lived handle saw %d tuples, want %d", n, batches*perBatch)
		}
	}
}
