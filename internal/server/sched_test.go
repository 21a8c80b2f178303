package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFairSchedulerUncontendedPassThrough: with demand ≤ slots, Acquire
// grants immediately and never blocks.
func TestFairSchedulerUncontendedPassThrough(t *testing.T) {
	s := NewFairScheduler(2)
	a := s.Session(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			release, err := a.Acquire(context.Background())
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			release()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("uncontended Acquire blocked")
	}
	if st := a.Stats(); st.EpochsServed != 100 {
		t.Fatalf("EpochsServed = %d, want 100", st.EpochsServed)
	}
}

// schedFakeClock is a mutex-guarded manual clock for deterministic
// virtual-time tests.
type schedFakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *schedFakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *schedFakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestFairSchedulerWeightedGrantOrder pins the weighted virtual-time
// policy deterministically: with one slot and three contending sessions —
// h at weight 2, a and b at weight 1, every epoch costing the same wall
// time — h must win the contested dispatch after each of a and b has been
// served once, because its virtual clock advanced half as fast.
func TestFairSchedulerWeightedGrantOrder(t *testing.T) {
	clk := &schedFakeClock{t: time.Unix(1000, 0)}
	s := NewFairScheduler(1)
	s.now = clk.Now
	h := s.Session(2)
	a := s.Session(1)
	b := s.Session(1)

	grants := make(chan string, 16)
	acquire := func(name string, ss *schedSession) chan func() {
		out := make(chan func(), 1)
		go func() {
			release, err := ss.Acquire(context.Background())
			if err != nil {
				t.Errorf("%s: Acquire: %v", name, err)
				close(out)
				return
			}
			grants <- name
			out <- release
		}()
		return out
	}
	waitWaiters := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			got := len(s.waiters)
			s.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiters = %d, want %d", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	expect := func(name string) {
		t.Helper()
		select {
		case got := <-grants:
			if got != name {
				t.Fatalf("granted %q, want %q", got, name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no grant (want %q)", name)
		}
	}
	const epochCost = 2 * time.Millisecond

	// Hold the slot so all three sessions queue with virtual time 0; FIFO
	// breaks the three-way tie in arrival order h, a, b.
	blocker := s.Session(1)
	relX, err := blocker.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hc := acquire("h", h)
	waitWaiters(1)
	ac := acquire("a", a)
	waitWaiters(2)
	bc := acquire("b", b)
	waitWaiters(3)
	relX()

	expect("h")
	relH := <-hc
	clk.advance(epochCost)
	relH() // v_h = 1ms; a and b still at 0 → a granted (FIFO)
	expect("a")
	hc = acquire("h", h) // h's next epoch queues behind
	waitWaiters(2)
	relA := <-ac
	clk.advance(epochCost)
	relA() // v_a = 2ms; waiters b(0), h(1ms) → b granted
	expect("b")
	ac = acquire("a", a)
	waitWaiters(2)
	relB := <-bc
	clk.advance(epochCost)
	relB() // v_b = 2ms; waiters h(1ms), a(2ms) → h wins on weight
	expect("h")
	relH = <-hc
	clk.advance(epochCost)
	relH()
	expect("a") // v_h = 2ms now; a(2ms) wins the tie on arrival order
	relA = <-ac
	relA()

	if hs := h.Stats(); hs.EpochsServed != 2 {
		t.Fatalf("h EpochsServed = %d, want 2", hs.EpochsServed)
	}
	if as := a.Stats(); as.EpochsServed != 2 || as.MaxWaitMs <= 0 {
		t.Fatalf("a stats = %+v, want 2 served with positive wait", as)
	}
}

// TestFairSchedulerFloodDoesNotStarve: a flooding session cannot lock out a
// well-behaved one — the victim's epochs keep being served.
func TestFairSchedulerFloodDoesNotStarve(t *testing.T) {
	s := NewFairScheduler(1)
	flood := s.Session(1)
	victim := s.Session(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // flooder: acquires as fast as it can
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			release, err := flood.Acquire(context.Background())
			if err != nil {
				return
			}
			time.Sleep(time.Millisecond)
			release()
		}
	}()
	// Victim steps at a modest pace; every step must get through promptly.
	for i := 0; i < 20; i++ {
		start := time.Now()
		release, err := victim.Acquire(context.Background())
		if err != nil {
			t.Fatalf("victim Acquire: %v", err)
		}
		wait := time.Since(start)
		release()
		if wait > 2*time.Second {
			t.Fatalf("victim starved: wait %v on iteration %d", wait, i)
		}
	}
	close(stop)
	wg.Wait()
	if st := victim.Stats(); st.EpochsServed != 20 {
		t.Fatalf("victim EpochsServed = %d, want 20", st.EpochsServed)
	}
}

// TestFairSchedulerAcquireCancel: a parked Acquire honors ctx cancellation
// and leaves no queued waiter behind.
func TestFairSchedulerAcquireCancel(t *testing.T) {
	s := NewFairScheduler(1)
	a := s.Session(1)
	b := s.Session(1)

	releaseA, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Acquire(ctx)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled Acquire returned %v, want context.Canceled", err)
	}
	releaseA()
	// The slot must be free again for a fresh acquire.
	release, err := b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// TestFairSchedulerClosePassThrough: Close grants all parked waiters and
// degrades future Acquires to no-ops.
func TestFairSchedulerClosePassThrough(t *testing.T) {
	s := NewFairScheduler(1)
	a := s.Session(1)
	b := s.Session(1)

	releaseA, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		release, err := b.Acquire(context.Background())
		if err != nil {
			t.Errorf("parked Acquire after Close: %v", err)
			return
		}
		release()
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not grant the parked waiter")
	}
	releaseA() // releasing after Close must not panic or block
	if release, err := a.Acquire(context.Background()); err != nil || release == nil {
		t.Fatalf("post-Close Acquire err = %v (release nil: %v), want pass-through", err, release == nil)
	}
}

// TestEngineGateCancelledStepReturnsCtxErr: an engine parked on its gate
// abandons the step when the context is cancelled.
func TestEngineGateCancelledStepReturnsCtxErr(t *testing.T) {
	s := NewFairScheduler(1)
	blocker := s.Session(1)
	release, err := blocker.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	e := newEngine(t)
	e.SetEpochGate(s.Session(1))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- e.StepCtx(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("StepCtx = %v, want context.Canceled", err)
	}
	if got := e.Epochs(); got != 0 {
		t.Fatalf("cancelled step ran an epoch: Epochs = %d", got)
	}
}
