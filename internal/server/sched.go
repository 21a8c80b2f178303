package server

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/client"
)

// FairScheduler arbitrates epoch execution across a manager's sessions with
// weighted fair queueing, replacing first-come dispatch: every session's
// Step first acquires a slot through its gate, and when demand exceeds the
// slot count, waiters are granted in virtual-time order — each session's
// virtual clock advances by (epoch wall duration ÷ weight) per served
// epoch, so a session flooding epochs accumulates virtual time fast and
// yields to lighter sessions. A session with weight 2 gets twice the epoch
// bandwidth of a weight-1 session under contention; an uncontended manager
// (demand ≤ slots) is unaffected, every Acquire granted immediately.
//
// The scheduler never reorders epochs within a session (the engine's stepMu
// already serializes those), so per-session output determinism is
// untouched: fairness decides only when each session's next epoch runs,
// never what it contains.
type FairScheduler struct {
	mu      sync.Mutex
	slots   int
	inUse   int
	waiters []*schedWaiter        // pending grants, scanned for min virtual time
	running map[*schedSession]int // sessions currently holding slots
	virtual float64               // high-water virtual time of granted work
	seq     uint64                // FIFO tiebreak for equal virtual times
	closed  bool
	now     func() time.Time // injectable for tests
}

// NewFairScheduler builds a scheduler with the given concurrent-epoch slot
// count (minimum 1).
func NewFairScheduler(slots int) *FairScheduler {
	if slots < 1 {
		slots = 1
	}
	return &FairScheduler{slots: slots, running: make(map[*schedSession]int), now: time.Now}
}

// schedIdleGrace is how long a session must be absent from the scheduler
// before its virtual clock is caught up to the active floor on rejoin. A
// busy session re-acquiring between back-to-back epochs keeps its earned
// (low) virtual time — catching it up on every arrival would erase the
// fairness credit it accrued while serving cheaply. A genuinely idle
// session must not bank unbounded credit, so after the grace it rejoins at
// the floor of what's currently active.
const schedIdleGrace = 100 * time.Millisecond

// schedWaitRing bounds the per-session wait-latency reservoir backing the
// p50/p99 figures in /status.
const schedWaitRing = 512

// schedSession is one session's gate onto the scheduler — the handle a
// manager attaches to the session's engine. It carries the session's
// weight, virtual clock and wait-latency accounting.
type schedSession struct {
	s      *FairScheduler
	weight float64

	// Guarded by s.mu.
	vtime       float64   // virtual time consumed
	lastActive  time.Time // last grant or release; gates idle catch-up
	served      uint64
	totalWaitNs int64
	maxWaitNs   int64
	waitRing    [schedWaitRing]int64
	waitN       int // samples written (ring wraps at schedWaitRing)
}

type schedWaiter struct {
	sess    *schedSession
	vtime   float64 // snapshot at enqueue: the grant-order key
	seq     uint64
	queued  time.Time
	ready   chan struct{}
	granted bool
	grantAt time.Time
}

// Session builds a gate for one session. weight ≤ 0 defaults to 1.
func (s *FairScheduler) Session(weight float64) *schedSession {
	if weight <= 0 {
		weight = 1
	}
	return &schedSession{s: s, weight: weight}
}

// Acquire claims an epoch slot, blocking in virtual-time order under
// contention. It returns the release closure the epoch must call when done
// (the measured wall duration is what advances the session's virtual
// clock). On a closed scheduler Acquire degrades to a no-op pass-through so
// shutdown never deadlocks a draining epoch; on ctx cancellation it returns
// ctx.Err() with nothing held.
func (ss *schedSession) Acquire(ctx context.Context) (func(), error) {
	s := ss.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return func() {}, nil
	}
	// A session rejoining after real idleness must not cash in virtual
	// time it "saved" while inactive: catch its clock up to the floor of
	// the currently active sessions (falling back to the global high-water
	// mark when nothing is active). Sessions cycling straight from one
	// epoch into the next keep their earned clock.
	now := s.now()
	if ss.lastActive.IsZero() || now.Sub(ss.lastActive) > schedIdleGrace {
		if floor := s.activeFloorLocked(); ss.vtime < floor {
			ss.vtime = floor
		}
	}
	s.seq++
	w := &schedWaiter{sess: ss, vtime: ss.vtime, seq: s.seq, queued: now, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.dispatchLocked()
	s.mu.Unlock()

	select {
	case <-w.ready:
		return func() { s.release(w) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: hand the slot back.
			s.mu.Unlock()
			s.release(w)
		} else {
			for i, q := range s.waiters {
				if q == w {
					s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// activeFloorLocked returns the minimum virtual time across sessions with
// queued or running work — the rejoin floor for idle sessions — or the
// global high-water mark when the scheduler is empty.
func (s *FairScheduler) activeFloorLocked() float64 {
	floor := s.virtual
	first := true
	for _, w := range s.waiters {
		if first || w.sess.vtime < floor {
			floor, first = w.sess.vtime, false
		}
	}
	for sess := range s.running {
		if first || sess.vtime < floor {
			floor, first = sess.vtime, false
		}
	}
	return floor
}

// dispatchLocked grants free slots to the waiters with the smallest virtual
// time (FIFO on ties). Linear scan: waiter counts are bounded by session
// counts, which are small (Manager.MaxSessions).
func (s *FairScheduler) dispatchLocked() {
	for s.inUse < s.slots && len(s.waiters) > 0 {
		best := 0
		for i, w := range s.waiters[1:] {
			if w.vtime < s.waiters[best].vtime ||
				(w.vtime == s.waiters[best].vtime && w.seq < s.waiters[best].seq) {
				best = i + 1
			}
		}
		w := s.waiters[best]
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		if w.vtime > s.virtual {
			s.virtual = w.vtime
		}
		s.inUse++
		w.granted = true
		w.grantAt = s.now()
		wait := w.grantAt.Sub(w.queued).Nanoseconds()
		ss := w.sess
		s.running[ss]++
		ss.lastActive = w.grantAt
		ss.served++
		ss.totalWaitNs += wait
		if wait > ss.maxWaitNs {
			ss.maxWaitNs = wait
		}
		ss.waitRing[ss.waitN%schedWaitRing] = wait
		ss.waitN++
		close(w.ready)
	}
}

// release returns a granted slot and charges the epoch's wall duration to
// the session's virtual clock, scaled by its weight.
func (s *FairScheduler) release(w *schedWaiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	now := s.now()
	elapsed := now.Sub(w.grantAt).Seconds()
	if elapsed < 0 {
		elapsed = 0
	}
	ss := w.sess
	ss.vtime += elapsed / ss.weight
	ss.lastActive = now
	if s.running[ss] <= 1 {
		delete(s.running, ss)
	} else {
		s.running[ss]--
	}
	s.inUse--
	s.dispatchLocked()
}

// Close retires the scheduler: every queued waiter is granted immediately
// and future Acquires pass through unthrottled, so a manager shutting down
// can never wedge behind its own fairness gate.
func (s *FairScheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.waiters {
		w.granted = true
		w.grantAt = s.now()
		close(w.ready)
	}
	s.waiters = nil
}

// Stats snapshots the session's scheduling accounting for /status: the
// percentiles are over the most recent served epochs (a bounded reservoir).
func (ss *schedSession) Stats() client.Sched {
	s := ss.s
	s.mu.Lock()
	st := client.Sched{
		EpochsServed: ss.served,
		MaxWaitMs:    nsToMs(ss.maxWaitNs),
		TotalWaitMs:  nsToMs(ss.totalWaitNs),
		Weight:       ss.weight,
	}
	n := ss.waitN
	if n > schedWaitRing {
		n = schedWaitRing
	}
	samples := make([]int64, n)
	copy(samples, ss.waitRing[:n])
	s.mu.Unlock()
	if n > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		st.P50WaitMs = nsToMs(samples[n/2])
		st.P99WaitMs = nsToMs(samples[(n*99)/100])
	}
	return st
}

// nsToMs renders a nanosecond count in milliseconds.
func nsToMs(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
