package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stream"
)

// testFactory builds engines from the standard test config, applying spec
// overrides.
func testFactory(t *testing.T) EngineFactory {
	return templateFactory(t, testConfig())
}

// templateFactory builds engines from a hand-built template. This is how
// tests reach the reference paths (unfused walk, per-query fabrication): a
// second manager whose template sets the lever, never a spec field.
func templateFactory(t *testing.T, template Config) EngineFactory {
	t.Helper()
	fields := testFields(t)
	return NewEngineFactory(template, func() (map[string]sensors.Field, error) {
		return fields, nil
	})
}

func newManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.NewEngine == nil {
		cfg.NewEngine = testFactory(t)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestManagerCreateGetListDestroy(t *testing.T) {
	m := newManager(t, ManagerConfig{})
	a, err := m.Create(SessionSpec{Name: "a", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "a" || a.Engine == nil {
		t.Fatalf("session = %+v", a)
	}
	// Auto-named sessions get unique names.
	b, err := m.Create(SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name == "" || b.Name == "a" {
		t.Fatalf("auto name = %q", b.Name)
	}
	// Duplicate names are refused.
	if _, err := m.Create(SessionSpec{Name: "a"}); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	got, err := m.Get("a")
	if err != nil || got != a {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("missing Get = %v", err)
	}
	list := m.List()
	if len(list) != 2 || list[0].Name != "a" {
		t.Fatalf("List = %v", list)
	}
	if err := m.Destroy("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy("a"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double destroy = %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestManagerSessionLimit(t *testing.T) {
	m := newManager(t, ManagerConfig{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := m.Create(SessionSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(SessionSpec{}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-limit create = %v", err)
	}
	// Destroying frees a slot.
	name := m.List()[0].Name
	if err := m.Destroy(name); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(SessionSpec{}); err != nil {
		t.Fatalf("create after destroy = %v", err)
	}
}

func TestManagerIdleGC(t *testing.T) {
	m := newManager(t, ManagerConfig{IdleTTL: time.Minute})
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	if _, err := m.Create(SessionSpec{Name: "idle"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(SessionSpec{Name: "keep", Pinned: true}); err != nil {
		t.Fatal(err)
	}
	// Within the TTL both survive.
	now = now.Add(30 * time.Second)
	if len(m.List()) != 2 {
		t.Fatal("session GC'd before TTL")
	}
	// Listing refreshed nothing (only Get touches); past the TTL the
	// unpinned session is collected lazily on the next operation.
	now = now.Add(2 * time.Minute)
	list := m.List()
	if len(list) != 1 || list[0].Name != "keep" {
		t.Fatalf("after GC: %v", list)
	}
	if _, err := m.Get("idle"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("GC'd session still resolvable: %v", err)
	}
	// Access keeps a session alive across TTL windows.
	if _, err := m.Create(SessionSpec{Name: "busy"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		now = now.Add(45 * time.Second)
		if _, err := m.Get("busy"); err != nil {
			t.Fatalf("touched session GC'd: %v", err)
		}
	}
}

func TestEngineStartStopSimulated(t *testing.T) {
	cfg := testConfig()
	cfg.Clock = ClockConfig{Simulated: true}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.Running() {
		t.Fatal("running before Start")
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("second Start = %v", err)
	}
	waitFor(t, 5*time.Second, "simulated epochs", func() bool { return e.Epochs() >= 3 })
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if e.Running() {
		t.Fatal("running after Stop")
	}
	// The drain is complete: no further epochs tick.
	n := e.Epochs()
	time.Sleep(10 * time.Millisecond)
	if e.Epochs() != n {
		t.Fatal("epochs advanced after Stop")
	}
	if err := e.Stop(); err != nil {
		t.Fatal("second Stop should be a no-op")
	}
}

func TestEngineStartTicker(t *testing.T) {
	cfg := testConfig()
	cfg.Clock = ClockConfig{Interval: 2 * time.Millisecond}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "ticker epochs", func() bool { return e.Epochs() >= 2 })
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStartContextCancel(t *testing.T) {
	cfg := testConfig()
	cfg.Clock = ClockConfig{Simulated: true}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "epochs before cancel", func() bool { return e.Epochs() >= 1 })
	cancel()
	// The loop drains; Running flips false once the loop exits, and Stop
	// collects without error.
	waitFor(t, 5*time.Second, "drain after cancel", func() bool { return !e.Running() })
	// A halted clock is restartable without an intervening Stop: Start
	// reaps the finished loop instead of reporting ErrAlreadyRunning.
	if err := e.Start(context.Background()); err != nil {
		t.Fatalf("restart after halt = %v", err)
	}
	if !e.Running() {
		t.Fatal("not running after restart")
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDestroyTerminatesStreamers: destroying a session closes its queries'
// result stores so blocked streaming readers end instead of hanging on a
// dead engine.
func TestDestroyTerminatesStreamers(t *testing.T) {
	m := newManager(t, ManagerConfig{})
	sess, err := m.Create(SessionSpec{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Engine.ResultStore(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- store.Wait(context.Background(), 1<<40) }()
	if err := m.Destroy("s"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, stream.ErrStoreClosed) {
			t.Fatalf("Wait after destroy = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("streaming reader not released by session destroy")
	}
}

// TestManagerConcurrentSessionsIndependentClocks is the acceptance check
// that one process hosts ≥2 sessions ticking on independent clocks.
func TestManagerConcurrentSessionsIndependentClocks(t *testing.T) {
	m := newManager(t, ManagerConfig{})
	fast, err := m.Create(SessionSpec{Name: "fast", Seed: 7, Clock: ClockConfig{Simulated: true}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.Create(SessionSpec{Name: "slow", Seed: 9, Clock: ClockConfig{Interval: 3 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Engine.Running() || !slow.Engine.Running() {
		t.Fatal("clocked sessions not started on create")
	}
	waitFor(t, 10*time.Second, "both sessions ticking", func() bool {
		return fast.Engine.Epochs() >= 3 && slow.Engine.Epochs() >= 2
	})
	// Simulated epochs vastly outpace a 3ms wall clock: the clocks are
	// genuinely independent.
	if fast.Engine.Epochs() < slow.Engine.Epochs() {
		t.Fatalf("fast=%d slow=%d", fast.Engine.Epochs(), slow.Engine.Epochs())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if fast.Engine.Running() || slow.Engine.Running() {
		t.Fatal("sessions still running after manager Close")
	}
}

// TestCursorReadsMatchCollector is the acceptance check that the bounded
// cursor path returns byte-identical tuples to an unbounded collector for
// the same seed.
func TestCursorReadsMatchCollector(t *testing.T) {
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3}

	storeEngine := newEngine(t)
	stored, err := storeEngine.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := storeEngine.Run(12); err != nil {
		t.Fatal(err)
	}

	colEngine := newEngine(t) // same seed, same config
	col := stream.NewCollector()
	if _, err := colEngine.SubmitWithSink(q, col); err != nil {
		t.Fatal(err)
	}
	if err := colEngine.Run(12); err != nil {
		t.Fatal(err)
	}

	want := col.Tuples()
	if len(want) == 0 {
		t.Fatal("collector saw no tuples")
	}
	// Page through the store with a deliberately awkward page size.
	var got []stream.Tuple
	var cursor uint64
	for {
		page, next, dropped, err := storeEngine.ReadResults(stored.ID, cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 {
			t.Fatalf("unexpected drops: %d", dropped)
		}
		if len(page) == 0 {
			break
		}
		got = append(got, page...)
		cursor = next
	}
	if len(got) != len(want) {
		t.Fatalf("cursor path: %d tuples, collector: %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestRetentionBoundsMemory is the acceptance check that a never-read
// query's memory stays bounded at the configured retention while epochs
// keep running, with evictions accounted as explicit drops.
func TestRetentionBoundsMemory(t *testing.T) {
	cfg := testConfig()
	cfg.Retention = 64
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	store, err := e.ResultStore(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() > 64 {
		t.Fatalf("retained %d tuples, retention 64", store.Len())
	}
	if store.Total() <= 64 {
		t.Fatalf("test too weak: only %d tuples fabricated", store.Total())
	}
	if store.Dropped() != store.Total()-uint64(store.Len()) {
		t.Fatalf("drop accounting: dropped=%d total=%d len=%d", store.Dropped(), store.Total(), store.Len())
	}
	// A reader starting at zero sees the drops explicitly.
	tuples, next, dropped, err := e.ReadResults(q.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != store.Dropped() || uint64(len(tuples))+dropped != next {
		t.Fatalf("read: %d tuples, dropped=%d, next=%d", len(tuples), dropped, next)
	}
	if e.RetentionDrops() != store.Dropped() {
		t.Fatalf("RetentionDrops = %d, want %d", e.RetentionDrops(), store.Dropped())
	}
}

// TestSubmitScriptParseFailureLeavesNothing covers the satellite
// requirement: a mid-script parse failure must leave zero live queries.
func TestSubmitScriptParseFailureLeavesNothing(t *testing.T) {
	e := newEngine(t)
	_, err := e.SubmitScript(`
ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3;
ACQUIRE temp FROM garbage;
`)
	if err == nil {
		t.Fatal("bad script accepted")
	}
	if !strings.Contains(err.Error(), "garbage") && err == nil {
		t.Fatalf("parse error not surfaced: %v", err)
	}
	if n := len(e.Queries()); n != 0 {
		t.Fatalf("%d live queries after parse failure", n)
	}
	// The engine remains usable and IDs restart cleanly.
	q, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Results(q.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteClosesStore: deleting a query terminates its streaming readers.
func TestDeleteClosesStore(t *testing.T) {
	e := newEngine(t)
	q, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err != nil {
		t.Fatal(err)
	}
	store, err := e.ResultStore(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- store.Wait(context.Background(), 1<<40) }()
	if err := e.Delete(q.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, stream.ErrStoreClosed) {
			t.Fatalf("Wait after delete = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("streaming reader not released by delete")
	}
}
