package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/stream"
)

// ClockConfig selects how a started engine advances epochs. The JSON tags
// serve the session manifest (Manager.Recover); Interval round-trips as
// nanoseconds.
type ClockConfig struct {
	// Interval is the wall-clock time between epochs. Zero defaults to one
	// second unless Simulated is set.
	Interval time.Duration `json:"interval,omitempty"`
	// Simulated runs epochs back-to-back with no wall-clock pacing — the
	// mode for simulations and tests that want maximum epoch throughput.
	Simulated bool `json:"simulated,omitempty"`
}

// clockState tracks the Start/Stop lifecycle of an engine's epoch driver.
type clockState struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// ErrAlreadyRunning is returned by Start when the engine's clock is live.
var ErrAlreadyRunning = errors.New("server: engine already running")

// Start launches the engine's epoch driver: a goroutine calling Step on the
// configured clock (Config.Clock) until ctx is done or Stop is called. The
// drain is graceful — an in-flight epoch always completes, so stopping never
// tears a stream mid-batch. Manual Step/Run calls remain legal while the
// clock runs; epochs are serialized either way.
func (e *Engine) Start(ctx context.Context) error {
	c := &e.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		select {
		case <-c.done:
			// The previous clock halted (Step error or parent ctx): reap it
			// so the engine is restartable; c.err is replaced below.
			c.cancel()
			c.cancel, c.done = nil, nil
		default:
			return ErrAlreadyRunning
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	c.cancel, c.done, c.err = cancel, done, nil
	cfg := e.cfg.Clock
	go func() {
		defer close(done)
		err := e.tickLoop(ctx, cfg)
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
	}()
	return nil
}

// tickLoop drives epochs until ctx is done — back to back on a simulated
// clock, one per tick otherwise — and returns the first Step error (the
// clock halts on failure rather than ticking a broken engine). ErrEpochOpen
// is not a failure: a watermark-gated epoch makes a ticking clock skip the
// tick, and a simulated one park until the watermark advances — the
// session's event-time clock is then effectively driven by its producers.
func (e *Engine) tickLoop(ctx context.Context, cfg ClockConfig) error {
	var tick <-chan time.Time // nil: no pacing
	if !cfg.Simulated {
		interval := cfg.Interval
		if interval <= 0 {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for ctx.Err() == nil {
		if tick != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-tick:
			}
		}
		err := e.StepCtx(ctx)
		switch {
		case err == nil:
		case ctx.Err() != nil:
			// Stop cancelled a parked fair-scheduler acquisition (or the
			// epoch raced the stop): a clean stop.
			return nil
		case !errors.Is(err, ErrEpochOpen):
			return err
		case tick == nil && e.waitSourceReady(ctx) != nil:
			// Queue closed or ctx done: a clean stop, not an engine failure.
			return nil
		}
	}
	return nil
}

// Stop halts the epoch driver and waits for the in-flight epoch to drain.
// It returns the error that stopped the clock, if any. Stopping an engine
// that was never started (or already stopped) is a no-op.
func (e *Engine) Stop() error {
	c := &e.clock
	c.mu.Lock()
	cancel, done := c.cancel, c.done
	c.mu.Unlock()
	if cancel == nil {
		return nil
	}
	cancel()
	<-done
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancel, c.done = nil, nil
	return c.err
}

// Running reports whether the epoch driver is live: started and its loop
// still ticking. A clock that halted on a Step error reports false; the
// error is readable via ClockErr before Stop collects it.
func (e *Engine) Running() bool {
	c := &e.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel == nil {
		return false
	}
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// ClockErr returns the error that halted the epoch driver, if any — the
// operator-visible diagnostic for a clock that stopped ticking on a failed
// Step. It is also returned by Stop.
func (e *Engine) ClockErr() error {
	c := &e.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Shutdown retires the engine: the epoch driver is stopped (drained), the
// ingest queue is closed so producers get ErrClosed instead of feeding a
// dead engine, the durability layer (when enabled) writes a final
// snapshot and closes the WAL, and every live query's result store is
// closed so blocked streaming readers terminate. The ordering is the
// graceful-shutdown ack guarantee: the queue closes first (new pushes get
// ErrClosed → 503 and retry elsewhere), then the WAL's final flush covers
// every record already appended — an in-flight PushObservations that made
// it into the queue before the close still commits and acks durably.
// The engine must not be used afterwards.
func (e *Engine) Shutdown() error {
	err := e.Stop()
	if e.queue != nil {
		e.queue.Close()
	}
	if e.dur != nil {
		e.stepMu.Lock()
		err = errors.Join(err, e.finalizeDurability())
		e.stepMu.Unlock()
	}
	e.mu.Lock()
	stores := make([]*stream.ResultStore, 0, len(e.results))
	for _, store := range e.results {
		stores = append(stores, store)
	}
	e.mu.Unlock()
	for _, store := range stores {
		store.Close()
	}
	return err
}

// RetentionDrops is the number of result tuples evicted from retention
// before their query could have read them back, summed over every query the
// engine has served — whether or not anyone was reading. Each query counts
// from its own submission, shared stream or not, and a deleted query's
// evictions stay counted, so the figure only grows.
func (e *Engine) RetentionDrops() uint64 {
	e.mu.Lock()
	total := e.retiredDrops
	stores := make([]*stream.ResultStore, 0, len(e.results))
	for _, store := range e.results {
		stores = append(stores, store)
	}
	e.mu.Unlock()
	for _, store := range stores {
		total += store.Dropped()
	}
	return total
}
