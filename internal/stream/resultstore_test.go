package stream

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
)

// storeBatch builds a batch of n tuples with IDs starting at firstID.
func storeBatch(firstID uint64, n int) Batch {
	b := Batch{Attr: "a", Window: geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 1, 1)}}
	for i := 0; i < n; i++ {
		id := firstID + uint64(i)
		b.Tuples = append(b.Tuples, Tuple{ID: id, Attr: "a", T: float64(id)})
	}
	return b
}

// batchesOf returns the number of batches s received since it attached.
func batchesOf(s *ResultStore) uint64 {
	r := s.lock()
	defer r.mu.Unlock()
	return r.batches - s.baseBatches
}

func TestResultStoreBasicRead(t *testing.T) {
	s := NewResultStore(16)
	if err := s.Process(storeBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	out, next, dropped := s.ReadFrom(0, 0, nil)
	if len(out) != 5 || next != 5 || dropped != 0 {
		t.Fatalf("read = %d tuples next=%d dropped=%d", len(out), next, dropped)
	}
	for i, tp := range out {
		if tp.ID != uint64(i) {
			t.Fatalf("tuple %d has ID %d", i, tp.ID)
		}
	}
	// Resuming from next returns nothing until more is appended.
	out, next2, _ := s.ReadFrom(next, 0, nil)
	if len(out) != 0 || next2 != next {
		t.Fatalf("empty resume read = %d next=%d", len(out), next2)
	}
	if err := s.Process(storeBatch(5, 3)); err != nil {
		t.Fatal(err)
	}
	out, next3, _ := s.ReadFrom(next2, 0, nil)
	if len(out) != 3 || out[0].ID != 5 || next3 != 8 {
		t.Fatalf("incremental read = %+v next=%d", out, next3)
	}
}

func TestResultStoreWraparound(t *testing.T) {
	s := NewResultStore(8)
	for i := 0; i < 5; i++ {
		if err := s.Process(storeBatch(uint64(i*4), 4)); err != nil {
			t.Fatal(err)
		}
	}
	// 20 appended, 8 retained, 12 dropped.
	if s.Len() != 8 || s.Total() != 20 || s.Dropped() != 12 {
		t.Fatalf("len=%d total=%d dropped=%d", s.Len(), s.Total(), s.Dropped())
	}
	out, next, dropped := s.ReadFrom(0, 0, nil)
	if dropped != 12 || next != 20 || len(out) != 8 {
		t.Fatalf("read dropped=%d next=%d len=%d", dropped, next, len(out))
	}
	for i, tp := range out {
		if tp.ID != uint64(12+i) {
			t.Fatalf("tuple %d has ID %d, want %d", i, tp.ID, 12+i)
		}
	}
}

func TestResultStoreCursorSemantics(t *testing.T) {
	s := NewResultStore(4)
	if err := s.Process(storeBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	// Cursor in the dropped range: drops are counted up to the oldest
	// retained tuple, then reading resumes there.
	out, next, dropped := s.ReadFrom(2, 0, nil)
	if dropped != 4 || len(out) != 4 || out[0].ID != 6 || next != 10 {
		t.Fatalf("past-drop read: dropped=%d len=%d first=%v next=%d", dropped, len(out), out, next)
	}
	// Cursor beyond the end clamps to the end.
	out, next, dropped = s.ReadFrom(99, 0, nil)
	if len(out) != 0 || next != 10 || dropped != 0 {
		t.Fatalf("beyond-end read: len=%d next=%d dropped=%d", len(out), next, dropped)
	}
	// Limit paginates.
	out, next, _ = s.ReadFrom(6, 3, nil)
	if len(out) != 3 || next != 9 {
		t.Fatalf("limited read: len=%d next=%d", len(out), next)
	}
	out, next, _ = s.ReadFrom(next, 3, nil)
	if len(out) != 1 || out[0].ID != 9 || next != 10 {
		t.Fatalf("last page: %+v next=%d", out, next)
	}
}

func TestResultStoreBorrowedBufferRead(t *testing.T) {
	s := NewResultStore(64)
	if err := s.Process(storeBatch(0, 64)); err != nil {
		t.Fatal(err)
	}
	buf := BorrowTuples(64)
	defer buf.Release()
	allocs := testing.AllocsPerRun(50, func() {
		out, _, _ := s.ReadFrom(0, 0, buf.Tuples[:0])
		if len(out) != 64 {
			t.Fatal("short read")
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrom into borrowed buffer allocates %.1f/op", allocs)
	}
}

func TestResultStoreOversizedBatch(t *testing.T) {
	s := NewResultStore(4)
	if err := s.Process(storeBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	out, _, dropped := s.ReadFrom(0, 0, nil)
	if dropped != 6 || len(out) != 4 || out[0].ID != 6 || out[3].ID != 9 {
		t.Fatalf("oversized batch: dropped=%d out=%v", dropped, out)
	}
}

// TestResultStoreConcurrent races one writer against a paginating reader;
// run under -race it also exercises the locking. Retention is large enough
// that nothing drops, so the reader must observe every tuple exactly once,
// in order.
func TestResultStoreConcurrent(t *testing.T) {
	const total = 5000
	s := NewResultStore(total)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total/50; i++ {
			if err := s.Process(storeBatch(uint64(i*50), 50)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got []Tuple
	var cursor uint64
	buf := BorrowTuples(128)
	defer buf.Release()
	for cursor < total {
		out, next, dropped := s.ReadFrom(cursor, 128, buf.Tuples[:0])
		if dropped != 0 {
			t.Fatalf("unexpected drops: %d", dropped)
		}
		got = append(got, out...)
		cursor = next
	}
	wg.Wait()
	if len(got) != total {
		t.Fatalf("read %d tuples, want %d", len(got), total)
	}
	for i, tp := range got {
		if tp.ID != uint64(i) {
			t.Fatalf("tuple %d has ID %d", i, tp.ID)
		}
	}
}

func TestResultStoreWait(t *testing.T) {
	s := NewResultStore(8)
	// Wait returns immediately when the cursor is already behind.
	if err := s.Process(storeBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Wait blocks until the next append.
	done := make(chan error, 1)
	go func() { done <- s.Wait(context.Background(), 1) }()
	select {
	case err := <-done:
		t.Fatalf("Wait returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := s.Process(storeBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Context cancellation unblocks Wait.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- s.Wait(ctx, 99) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled Wait = %v", err)
	}
}

func TestResultStoreClose(t *testing.T) {
	s := NewResultStore(8)
	done := make(chan error, 1)
	go func() { done <- s.Wait(context.Background(), 0) }()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	if err := <-done; err != ErrStoreClosed {
		t.Fatalf("Wait after Close = %v", err)
	}
	if err := s.Process(storeBatch(0, 1)); err != ErrClosed {
		t.Fatalf("Process after Close = %v", err)
	}
	s.Close() // idempotent
}

func TestResultStoreDefaultRetention(t *testing.T) {
	s := NewResultStore(0)
	if s.Retention() != DefaultRetention {
		t.Fatalf("retention = %d", s.Retention())
	}
}

// TestResultStoreProcessAtMatchesProcess feeds one store batches as rows and
// another the same batches as positions into a source run: every observable
// must agree, across the wrap point, for empty batches, for a batch larger
// than the ring, and with a closed store refusing either form.
func TestResultStoreProcessAtMatchesProcess(t *testing.T) {
	src := storeBatch(100, 64).Tuples
	rows, at := NewResultStore(8), NewResultStore(8)
	for step, pos := range [][]uint32{
		{3, 9, 27}, {}, {1, 2, 4, 8, 16, 32}, {63}, {5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 18}, {0, 40}, nil,
	} {
		b := Batch{Attr: "a"}
		for _, p := range pos {
			b.Tuples = append(b.Tuples, src[p])
		}
		if err := rows.Process(b); err != nil {
			t.Fatal(err)
		}
		if err := at.ProcessAt(src, pos); err != nil {
			t.Fatal(err)
		}
		want, got := rows.Tuples(), at.Tuples()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d tuples retained, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: tuple %d = %v, want %v", step, i, got[i], want[i])
			}
		}
		if at.Total() != rows.Total() || at.Dropped() != rows.Dropped() || batchesOf(at) != batchesOf(rows) {
			t.Fatalf("step %d: total/dropped/batches %d/%d/%d, want %d/%d/%d", step,
				at.Total(), at.Dropped(), batchesOf(at), rows.Total(), rows.Dropped(), batchesOf(rows))
		}
	}
	at.Close()
	if err := at.ProcessAt(src, []uint32{1}); err != ErrClosed {
		t.Fatalf("ProcessAt on a closed store = %v, want ErrClosed", err)
	}
}
