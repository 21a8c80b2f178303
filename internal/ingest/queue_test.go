package ingest

import (
	"context"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/stream"
)

func obs(id uint64, t float64) stream.Tuple {
	return stream.Tuple{ID: id, Attr: "a", T: t, X: 1, Y: 1, Value: t, Sensor: -1}
}

func mustPush(t *testing.T, q *Queue, tuples []stream.Tuple, wm float64) Ack {
	t.Helper()
	ack, err := q.Push(tuples, wm)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// drain closes the epoch ending at t1 the way the epoch loop does, through
// QueueSource.Acquire, and returns its tuples with the attributes in name
// order.
func drain(t *testing.T, q *Queue, t1 float64) []stream.Tuple {
	t.Helper()
	src, err := NewQueueSource(q, geom.NewRect(0, 0, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	batches, err := src.Acquire(t1-1, t1)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Tuple
	for _, attr := range slices.Sorted(maps.Keys(batches)) {
		out = append(out, batches[attr].Tuples...)
	}
	return out
}

func TestWatermarkAndReady(t *testing.T) {
	q := NewQueue(Config{Tolerance: 0.5})
	if !math.IsInf(q.Watermark(), -1) {
		t.Fatalf("fresh queue watermark = %g, want -Inf", q.Watermark())
	}
	if q.Ready(1) {
		t.Fatal("fresh queue should not be ready")
	}
	mustPush(t, q, []stream.Tuple{obs(1, 1.2)}, math.NaN())
	if wm := q.Watermark(); wm != 0.7 {
		t.Fatalf("watermark = %g, want maxT-tolerance = 0.7", wm)
	}
	if q.Ready(1) {
		t.Fatal("epoch [0,1) must stay open at watermark 0.7")
	}
	mustPush(t, q, []stream.Tuple{obs(2, 1.6)}, math.NaN())
	if !q.Ready(1) {
		t.Fatal("epoch [0,1) should close at watermark 1.1")
	}
	// An asserted watermark floor wins over the data-driven one.
	mustPush(t, q, nil, 5)
	if wm := q.Watermark(); wm != 5 {
		t.Fatalf("asserted watermark = %g, want 5", wm)
	}
	if !q.Ready(5) {
		t.Fatal("asserted watermark should close epochs up to 5")
	}
}

// TestDrainDeterministic is the queue-level half of acceptance (a): the
// drained epoch content is a pure function of the pushed observations,
// independent of batching and arrival order within the tolerance.
func TestDrainDeterministic(t *testing.T) {
	all := []stream.Tuple{obs(3, 0.3), obs(1, 0.1), obs(7, 0.7), obs(5, 0.5), obs(9, 0.95)}

	oneShot := NewQueue(Config{Tolerance: 1})
	mustPush(t, oneShot, all, 2)
	a := drain(t, oneShot, 1)

	split := NewQueue(Config{Tolerance: 1})
	// Same observations, different batching, reversed arrival order.
	mustPush(t, split, []stream.Tuple{obs(9, 0.95), obs(5, 0.5)}, math.NaN())
	mustPush(t, split, []stream.Tuple{obs(7, 0.7)}, math.NaN())
	mustPush(t, split, []stream.Tuple{obs(1, 0.1), obs(3, 0.3)}, 2)
	b := drain(t, split, 1)

	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drains differ:\none-shot: %v\nsplit:    %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if stream.CompareTuples(a[i-1], a[i]) >= 0 {
			t.Fatalf("drain not (T,ID)-sorted at %d: %v", i, a)
		}
	}
	// Tuples at or past t1 stay buffered.
	future := NewQueue(Config{})
	mustPush(t, future, []stream.Tuple{obs(1, 0.5), obs(2, 1.5)}, math.NaN())
	got := drain(t, future, 1)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("drain [0,1) = %v, want only tuple 1", got)
	}
	if st := future.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending)
	}
}

func TestOverflowAccounting(t *testing.T) {
	q := NewQueue(Config{Buffer: 4})
	ack := mustPush(t, q, []stream.Tuple{obs(1, 0.1), obs(2, 0.2), obs(3, 0.3), obs(4, 0.4), obs(5, 0.5), obs(6, 0.6)}, math.NaN())
	if ack.Accepted != 4 || ack.Dropped != 2 {
		t.Fatalf("ack = %+v, want 4 accepted / 2 dropped", ack)
	}
	st := q.Stats()
	if st.Ingested != 4 || st.Dropped != 2 || st.Pending != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// Draining frees capacity.
	drain(t, q, 1)
	ack = mustPush(t, q, []stream.Tuple{obs(7, 1.1)}, math.NaN())
	if ack.Accepted != 1 || ack.Dropped != 0 {
		t.Fatalf("post-drain ack = %+v", ack)
	}
}

// TestOverflowStillAdvancesWatermark: a queue smaller than one epoch's
// volume must not wedge the session — overflow-dropped tuples still
// advance event time, so the epoch can close, drain, and free the buffer.
func TestOverflowStillAdvancesWatermark(t *testing.T) {
	q := NewQueue(Config{Buffer: 2})
	var batch []stream.Tuple
	for i := 0; i < 6; i++ {
		batch = append(batch, obs(uint64(i+1), float64(i)*0.25)) // up to T=1.25
	}
	ack := mustPush(t, q, batch, math.NaN())
	if ack.Accepted != 2 || ack.Dropped != 4 {
		t.Fatalf("ack = %+v", ack)
	}
	if !q.Ready(1) {
		t.Fatalf("epoch [0,1) must close at watermark %g despite the full buffer", q.Watermark())
	}
	got := drain(t, q, 1)
	if len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	// The freed buffer accepts again.
	if ack := mustPush(t, q, []stream.Tuple{obs(9, 1.5)}, math.NaN()); ack.Accepted != 1 {
		t.Fatalf("post-drain ack = %+v", ack)
	}
}

// TestRejectedPushDoesNotActivate: an all-rejected push must not flip the
// queue active (and so must not engage mixed-mode gating) while the
// watermark is still unknown — one malformed push must not freeze a
// simulation.
func TestRejectedPushDoesNotActivate(t *testing.T) {
	q := NewQueue(Config{Region: geom.NewRect(0, 0, 4, 4)})
	ack := mustPush(t, q, []stream.Tuple{{ID: 1, Attr: "a", T: 0.5, X: 99, Y: 99}}, math.NaN())
	if ack.Rejected != 1 || q.Active() {
		t.Fatalf("all-rejected push activated the queue: ack=%+v active=%v", ack, q.Active())
	}
	// A watermark-only heartbeat does activate.
	mustPush(t, q, nil, 1)
	if !q.Active() {
		t.Fatal("watermark assertion should activate the queue")
	}
}

func TestLatePolicies(t *testing.T) {
	// LateDrop: arrivals below the closed horizon are discarded, counted.
	q := NewQueue(Config{Late: LateDrop})
	drain(t, q, 1) // close [.., 1)
	ack := mustPush(t, q, []stream.Tuple{obs(1, 0.5), obs(2, 1.5)}, math.NaN())
	if ack.Accepted != 1 || ack.LateDropped != 1 || ack.Late != 0 {
		t.Fatalf("LateDrop ack = %+v", ack)
	}
	if st := q.Stats(); st.LateDropped != 1 {
		t.Fatalf("LateDropped = %d, want 1", st.LateDropped)
	}

	// LateNextEpoch: the late tuple rides the next epoch to close, original
	// timestamp intact.
	qn := NewQueue(Config{Late: LateNextEpoch})
	drain(t, qn, 1)
	ack = mustPush(t, qn, []stream.Tuple{obs(1, 0.5), obs(2, 1.5)}, math.NaN())
	if ack.Accepted != 2 || ack.Late != 1 || ack.LateDropped != 0 {
		t.Fatalf("LateNextEpoch ack = %+v", ack)
	}
	got := drain(t, qn, 2)
	if len(got) != 2 || got[0].ID != 1 || got[0].T != 0.5 {
		t.Fatalf("next-epoch drain = %v, want late tuple first with original T", got)
	}
	if st := qn.Stats(); st.Late != 1 {
		t.Fatalf("Late = %d, want 1", st.Late)
	}
}

func TestValidationRejects(t *testing.T) {
	region := geom.NewRect(0, 0, 4, 4)
	q := NewQueue(Config{Region: region})
	bad := []stream.Tuple{
		{ID: 1, Attr: "", T: 0.1, X: 1, Y: 1},         // missing attr
		{ID: 2, Attr: "a", T: math.NaN(), X: 1, Y: 1}, // NaN time
		{ID: 3, Attr: "a", T: 0.1, X: 9, Y: 1},        // outside region
		{ID: 4, Attr: "a", T: 0.1, X: 1, Y: 1},        // fine
	}
	ack := mustPush(t, q, bad, math.NaN())
	if ack.Rejected != 3 || ack.Accepted != 1 {
		t.Fatalf("ack = %+v, want 3 rejected / 1 accepted", ack)
	}
	if st := q.Stats(); st.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", st.Rejected)
	}
}

func TestGatewayIDs(t *testing.T) {
	q := NewQueue(Config{})
	mustPush(t, q, []stream.Tuple{obs(0, 0.2), obs(0, 0.1), obs(42, 0.3)}, math.NaN())
	got := drain(t, q, 1)
	if len(got) != 3 {
		t.Fatalf("drained %d", len(got))
	}
	// Arrival order assigned IDs 1, 2 under the gateway base; the client ID
	// is preserved.
	if got[0].ID != GatewayIDBase|2 || got[1].ID != GatewayIDBase|1 || got[2].ID != 42 {
		t.Fatalf("ids = %x %x %x", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestWaitReadyAndClose(t *testing.T) {
	q := NewQueue(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var waitErr error
	go func() {
		defer wg.Done()
		waitErr = q.WaitReady(ctx, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	mustPush(t, q, []stream.Tuple{obs(1, 1.5)}, math.NaN())
	wg.Wait()
	if waitErr != nil {
		t.Fatalf("WaitReady = %v", waitErr)
	}

	// Close wakes parked waiters with ErrClosed and fails further pushes,
	// but Ready turns true so a draining engine can close what remains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		waitErr = q.WaitReady(ctx, 99)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	if waitErr != ErrClosed {
		t.Fatalf("WaitReady after close = %v, want ErrClosed", waitErr)
	}
	if _, err := q.Push([]stream.Tuple{obs(2, 2)}, math.NaN()); err != ErrClosed {
		t.Fatalf("Push after close = %v, want ErrClosed", err)
	}
	if !q.Ready(99) {
		t.Fatal("closed queue should report every epoch ready")
	}
}

func TestConcurrentPushers(t *testing.T) {
	q := NewQueue(Config{Buffer: 1 << 16})
	var wg sync.WaitGroup
	const pushers, per = 8, 200
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tp := obs(uint64(p*per+i+1), float64(i)/per)
				if _, err := q.Push([]stream.Tuple{tp}, math.NaN()); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := q.Stats()
	if st.Ingested != pushers*per || st.Pending != pushers*per {
		t.Fatalf("stats = %+v", st)
	}
	got := drain(t, q, 1)
	if len(got) != pushers*per {
		t.Fatalf("drained %d, want %d", len(got), pushers*per)
	}
	for i := 1; i < len(got); i++ {
		if stream.CompareTuples(got[i-1], got[i]) >= 0 {
			t.Fatalf("drain out of order at %d", i)
		}
	}
}

func TestDuplicateClientIDsRejectedAcrossBatches(t *testing.T) {
	q := NewQueue(Config{Tolerance: 0})

	ack := mustPush(t, q, []stream.Tuple{obs(7, 1.0), obs(8, 1.1)}, math.NaN())
	if ack.Accepted != 2 || ack.Duplicates != 0 {
		t.Fatalf("first batch ack = %+v", ack)
	}
	// Redelivery of ID 7 in a later batch (even with different payload) is a
	// duplicate while the original is still buffered.
	dup := obs(7, 1.05)
	dup.Value = 99
	ack = mustPush(t, q, []stream.Tuple{dup, obs(9, 1.2)}, math.NaN())
	if ack.Accepted != 1 || ack.Duplicates != 1 {
		t.Fatalf("redelivered batch ack = %+v", ack)
	}
	if st := q.Stats(); st.Duplicates != 1 {
		t.Fatalf("Stats.Duplicates = %d, want 1", st.Duplicates)
	}

	// Draining the original releases the ID: a fresh push reusing it is no
	// longer a duplicate (dedup is bounded to the pending window).
	got := drain(t, q, 2.0)
	if len(got) != 3 {
		t.Fatalf("drained %d tuples, want 3", len(got))
	}
	ack = mustPush(t, q, []stream.Tuple{obs(7, 2.5)}, math.NaN())
	if ack.Accepted != 1 || ack.Duplicates != 0 {
		t.Fatalf("post-drain reuse ack = %+v", ack)
	}

	// Gateway-assigned IDs (pushed as zero) are never dedup-tracked.
	ack = mustPush(t, q, []stream.Tuple{obs(0, 2.6), obs(0, 2.6)}, math.NaN())
	if ack.Accepted != 2 || ack.Duplicates != 0 {
		t.Fatalf("gateway-ID ack = %+v", ack)
	}
}

// TestGatewayRangeClientIDRejected: a client ID with the top bit set lies in
// the gateway's namespace, so it is rejected. Were it accepted, a gateway
// tuple assigned the same ID could drain and take the client tuple's ID out
// of the duplicate window, and a redelivery would then sit in the window
// beside the original, equal in (T, ID).
func TestGatewayRangeClientIDRejected(t *testing.T) {
	q := NewQueue(Config{})
	client := obs(GatewayIDBase|1, 5.5)
	ack := mustPush(t, q, []stream.Tuple{client, obs(0, 4.5)}, math.NaN()) // the second is assigned GatewayIDBase|1
	if ack.Rejected != 1 || ack.Accepted != 1 {
		t.Fatalf("first push ack = %+v, want the client tuple rejected and the gateway one accepted", ack)
	}
	if got := drain(t, q, 5); len(got) != 1 || got[0].ID != GatewayIDBase|1 {
		t.Fatalf("drain = %v, want the gateway tuple", got)
	}
	ack = mustPush(t, q, []stream.Tuple{client}, math.NaN())
	if ack.Rejected != 1 || ack.Accepted != 0 || ack.Pending != 0 {
		t.Fatalf("redelivery ack = %+v, want rejected with nothing pending", ack)
	}
	ack = mustPush(t, q, []stream.Tuple{obs(GatewayIDBase-1, 5.5), obs(math.MaxUint64, 5.5)}, math.NaN())
	if ack.Accepted != 1 || ack.Rejected != 1 {
		t.Fatalf("ack = %+v, want 2⁶³−1 accepted and 2⁶⁴−1 rejected", ack)
	}
}

// TestDuplicateWindowHighWaterMark pins when the duplicate window builds its
// set: not while client IDs ascend, at the first ID at or below the largest
// pending one, and at a partial drain; a full drain starts it over.
func TestDuplicateWindowHighWaterMark(t *testing.T) {
	q := NewQueue(Config{})
	indexed := func(want bool, n int) {
		t.Helper()
		if q.indexed != want || q.pendingIDs.n != n {
			t.Fatalf("indexed=%v with %d IDs in the set, want %v with %d", q.indexed, q.pendingIDs.n, want, n)
		}
	}
	mustPush(t, q, []stream.Tuple{obs(3, 0.1), obs(0, 0.2), obs(5, 0.3)}, math.NaN())
	mustPush(t, q, []stream.Tuple{obs(9, 0.4)}, math.NaN())
	indexed(false, 0)
	ack := mustPush(t, q, []stream.Tuple{obs(9, 0.6), obs(7, 0.5), obs(10, 0.7)}, math.NaN())
	if ack.Accepted != 2 || ack.Duplicates != 1 {
		t.Fatalf("ack = %+v, want 9 (the largest pending ID) a duplicate, 7 and 10 accepted", ack)
	}
	indexed(true, 5)
	drain(t, q, 1) // everything is due: the window starts over
	indexed(false, 0)
	if ack := mustPush(t, q, []stream.Tuple{obs(9, 1.1), obs(1, 2.5)}, math.NaN()); ack.Accepted != 2 {
		t.Fatalf("ack = %+v, want both IDs accepted again after the drain", ack)
	}
	indexed(true, 2) // 1 is below 9
	drain(t, q, 2)
	mustPush(t, q, []stream.Tuple{obs(2, 2.6)}, math.NaN())
	indexed(true, 2) // a partial drain left the set built
	drain(t, q, 3)
	mustPush(t, q, []stream.Tuple{obs(4, 3.5), obs(6, 3.6)}, math.NaN())
	drain(t, q, 3.55) // partial, from the unindexed form
	indexed(true, 1)
	if ack := mustPush(t, q, []stream.Tuple{obs(6, 3.7), obs(4, 3.8)}, math.NaN()); ack.Accepted != 1 || ack.Duplicates != 1 {
		t.Fatalf("ack = %+v, want 6 a duplicate and the drained 4 accepted", ack)
	}
}

func TestNonFiniteFieldsRejected(t *testing.T) {
	q := NewQueue(Config{})
	bad := []stream.Tuple{}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := obs(0, 1.0)
		v.Value = f
		x := obs(0, 1.0)
		x.X = f
		y := obs(0, 1.0)
		y.Y = f
		bad = append(bad, v, x, y)
	}
	ack := mustPush(t, q, bad, math.NaN())
	if ack.Rejected != len(bad) || ack.Accepted != 0 {
		t.Fatalf("ack = %+v, want all %d rejected", ack, len(bad))
	}
	if st := q.Stats(); st.Rejected != uint64(len(bad)) {
		t.Fatalf("Stats.Rejected = %d, want %d", st.Rejected, len(bad))
	}
}
