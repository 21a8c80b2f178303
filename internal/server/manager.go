package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/sensors"
	"repro/internal/wal"
)

// SessionSpec is the per-session configuration a client supplies when
// creating a session; zero fields inherit the manager's template. The JSON
// form is the on-disk session manifest durable sessions are re-adopted
// from on restart (Manager.Recover).
type SessionSpec struct {
	// Name identifies the session; empty auto-generates "s1", "s2", ….
	Name string `json:"name,omitempty"`
	// Seed overrides the template's seed when non-zero, so concurrent
	// sessions fabricate independent worlds.
	Seed int64 `json:"seed,omitempty"`
	// Retention overrides the template's per-query result retention when
	// positive.
	Retention int `json:"retention,omitempty"`
	// Clock configures the session's epoch driver. Sessions with a positive
	// Interval or Simulated set are started on creation; others are stepped
	// manually.
	Clock ClockConfig `json:"clock,omitempty"`
	// Pinned exempts the session from idle GC (the long-lived default
	// session of a craqrd process is pinned).
	Pinned bool `json:"pinned,omitempty"`
	// AdaptiveRates turns the per-epoch rate-retune feedback loop on or off
	// for this session: the session's normalized violations drive
	// budget.RateScale adjustments of starved pipelines (see DESIGN.md,
	// "Planning and adaptivity"). nil inherits the manager's template
	// (craqrd -budget); a manifest always records the resolved value.
	AdaptiveRates *bool `json:"adaptiveRates,omitempty"`
	// Source selects the session's observation source composition:
	// "simulated", "external" or "mixed" (see ParseSourceMode). Empty
	// inherits the template's mode (craqrd -source).
	Source string `json:"source,omitempty"`
	// IngestBuffer overrides the ingest queue bound in tuples when positive.
	IngestBuffer int `json:"ingestBuffer,omitempty"`
	// IngestTolerance overrides the event-time out-of-order tolerance when
	// positive (simulation time units).
	IngestTolerance float64 `json:"ingestTolerance,omitempty"`
	// LatePolicy selects the late-tuple policy, "drop" or "next" (see
	// ingest.ParseLatePolicy); empty inherits the template's policy.
	LatePolicy string `json:"latePolicy,omitempty"`
	// DisableDurability opts this session out of write-ahead logging even
	// when the manager's template enables it (craqrd -data-dir) — for
	// throwaway sessions that should not pay the fsync or survive restarts.
	DisableDurability bool `json:"disableDurability,omitempty"`
	// SnapshotEvery overrides the snapshot cadence in epochs when positive.
	SnapshotEvery int `json:"snapshotEvery,omitempty"`
	// FsyncPolicy overrides the WAL fsync policy for this session: "batch",
	// "always" or "never" (see wal.ParsePolicy); empty inherits the
	// template's policy.
	FsyncPolicy string `json:"fsyncPolicy,omitempty"`
	// Weight is the session's fair-scheduling weight: under epoch-slot
	// contention it receives bandwidth proportional to Weight (≤ 0 = 1).
	// Scheduling-only — it never changes what any epoch contains.
	Weight float64 `json:"weight,omitempty"`
	// Limits is the session's admission-control envelope (rate limits and
	// quotas); nil or zero fields mean unlimited. Enforcement-time only: it
	// does not affect replay, so it is excluded from manifest-conflict
	// checks.
	Limits *TenantLimits `json:"limits,omitempty"`
}

// ErrInvalidSpec wraps every refusal of SessionSpec.Validate; over HTTP it
// is a 400.
var ErrInvalidSpec = errors.New("server: invalid session spec")

// Validate is the one check of a spec's values, run by Manager.Create for
// HTTP and Go callers alike, so a bad spec is refused up front instead of
// surfacing as a factory error — or as a silently ignored override.
func (s SessionSpec) Validate() error {
	invalid := func(err error) error { return fmt.Errorf("%w: %w", ErrInvalidSpec, err) }
	if _, err := ParseSourceMode(s.Source); err != nil {
		return invalid(err)
	}
	if s.LatePolicy != "" {
		if _, err := ingest.ParseLatePolicy(s.LatePolicy); err != nil {
			return invalid(err)
		}
	}
	if _, err := wal.ParsePolicy(s.FsyncPolicy); err != nil {
		return invalid(err)
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"ingestBuffer", float64(s.IngestBuffer)},
		{"tolerance", s.IngestTolerance},
		{"snapshotEvery", float64(s.SnapshotEvery)},
		{"weight", s.Weight},
	} {
		if f.value < 0 {
			return invalid(fmt.Errorf("%s must be non-negative, got %g", f.name, f.value))
		}
	}
	if s.Limits != nil {
		if err := s.Limits.Validate(); err != nil {
			return invalid(err)
		}
	}
	return nil
}

// Session is one named engine hosted by a Manager.
type Session struct {
	Name    string
	Engine  *Engine
	Spec    SessionSpec
	Created time.Time

	mu         sync.Mutex
	lastAccess time.Time
}

// touch refreshes the idle-GC deadline.
func (s *Session) touch(now time.Time) {
	s.mu.Lock()
	s.lastAccess = now
	s.mu.Unlock()
}

// LastAccess returns when the session was last resolved through its manager.
func (s *Session) LastAccess() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAccess
}

// EngineFactory builds a session's engine from its spec. The factory owns
// applying Seed/Retention/Clock overrides onto whatever base config it
// closes over (NewEngineFactory does this for the common case).
type EngineFactory func(spec SessionSpec) (*Engine, error)

// NewEngineFactory adapts a template Config and field builder into an
// EngineFactory that applies the spec's overrides. The builder runs once
// per session so each session owns its ground-truth fields.
func NewEngineFactory(template Config, fields func() (map[string]sensors.Field, error)) EngineFactory {
	return func(spec SessionSpec) (*Engine, error) {
		cfg, err := ConfigForSpec(template, spec)
		if err != nil {
			return nil, err
		}
		if cfg.Durability.Dir != "" {
			// Guard against silently resurrecting another session's durable
			// state: a leftover directory under the same name (idle-GC'd, or
			// from a previous daemon run) is re-adopted only when the specs
			// are replay-equivalent; a conflicting spec fails here with an
			// actionable error instead of a replay-verification failure deep
			// inside recovery. New (below) then replays whatever the
			// directory holds.
			if err := checkDurableDir(cfg.Durability.Dir, manifestSpec(cfg, spec)); err != nil {
				return nil, err
			}
		}
		f, err := fields()
		if err != nil {
			return nil, err
		}
		e, err := New(cfg, f)
		if err != nil {
			return nil, err
		}
		if cfg.Durability.Dir != "" {
			if err := e.writeManifest(manifestSpec(cfg, spec)); err != nil {
				_ = e.Shutdown()
				return nil, err
			}
		}
		return e, nil
	}
}

// manifestSpec materializes template-derived settings into the persisted
// spec, so recovery rebuilds the same engine even if the daemon restarts
// with different flags (and offline tools need not repeat them). Every
// template setting that changes replay semantics is pinned.
func manifestSpec(cfg Config, spec SessionSpec) SessionSpec {
	m := spec
	m.Seed = cfg.Seed
	m.Retention = cfg.Retention
	adaptive := cfg.AdaptiveRates
	m.AdaptiveRates = &adaptive
	m.Source = cfg.Source.Mode.String()
	m.IngestBuffer = cfg.Source.Buffer
	m.IngestTolerance = cfg.Source.Tolerance
	m.LatePolicy = cfg.Source.Late.String()
	m.FsyncPolicy = cfg.Durability.Fsync.String()
	m.SnapshotEvery = cfg.Durability.SnapshotEveryEpochs
	return m
}

// ConfigForSpec applies a session spec's overrides onto a template engine
// config — the pure half of NewEngineFactory, also used by offline tools
// (craqr-replay) that must rebuild a session's exact engine from its
// persisted manifest.
func ConfigForSpec(template Config, spec SessionSpec) (Config, error) {
	cfg := template
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	if spec.Retention > 0 {
		cfg.Retention = spec.Retention
	}
	if spec.AdaptiveRates != nil {
		cfg.AdaptiveRates = *spec.AdaptiveRates
	}
	if spec.Source != "" {
		mode, err := ParseSourceMode(spec.Source)
		if err != nil {
			return Config{}, err
		}
		cfg.Source.Mode = mode
	}
	if spec.IngestBuffer > 0 {
		cfg.Source.Buffer = spec.IngestBuffer
	}
	if spec.IngestTolerance > 0 {
		cfg.Source.Tolerance = spec.IngestTolerance
	}
	if spec.Limits != nil {
		cfg.Limits = *spec.Limits
	}
	if spec.LatePolicy != "" {
		late, err := ingest.ParseLatePolicy(spec.LatePolicy)
		if err != nil {
			return Config{}, err
		}
		cfg.Source.Late = late
	}
	// The template's Durability.Dir is the manager-wide root; each
	// durable session gets its own subdirectory holding the WAL,
	// snapshots and the manifest Recover re-adopts it from.
	if spec.DisableDurability {
		cfg.Durability = DurabilityConfig{}
	}
	if cfg.Durability.Dir != "" {
		if spec.SnapshotEvery > 0 {
			cfg.Durability.SnapshotEveryEpochs = spec.SnapshotEvery
		}
		if spec.FsyncPolicy != "" {
			policy, err := wal.ParsePolicy(spec.FsyncPolicy)
			if err != nil {
				return Config{}, err
			}
			cfg.Durability.Fsync = policy
		}
		cfg.Durability.Dir = sessionDir(cfg.Durability.Dir, spec.Name)
	}
	cfg.Clock = spec.Clock
	return cfg, nil
}

// manifestName is the per-session spec file Recover re-adopts sessions from.
const manifestName = "session.json"

// sessionDir maps a session name onto its durability subdirectory:
// root/sessions/<escaped-name>. Escaping keeps arbitrary session names
// (slashes, dots, spaces) inside the root.
func sessionDir(root, name string) string {
	escaped := url.QueryEscape(name)
	switch escaped {
	case "", ".", "..":
		escaped = "%00" + escaped
	}
	return filepath.Join(root, "sessions", escaped)
}

// readManifest loads the SessionSpec persisted in a session's durability
// directory (root/sessions/<name>/session.json). A field this
// build does not know — a manifest written when the spec still carried the
// A/B levers — is refused by name rather than dropped: replaying without
// it could fabricate a different stream.
func readManifest(dir string) (SessionSpec, error) {
	var spec SessionSpec
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("server: session manifest %s: %w (destroy the session and recreate it)", dir, err)
	}
	return spec, nil
}

// writeManifest persists the session's spec next to its WAL, written like a
// snapshot (durableState.writeFile), so a restarted manager can rebuild the
// same engine.
func (e *Engine) writeManifest(spec SessionSpec) error {
	err := e.dur.writeFile(filepath.Join(e.dur.cfg.Dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	})
	if err != nil {
		return fmt.Errorf("server: session manifest: %w", err)
	}
	return nil
}

// checkDurableDir refuses to build a session on top of durable state
// written under a conflicting spec. A directory with no manifest is fresh
// (or died before its first manifest write — its WAL is empty either way);
// a manifest equivalent to next means re-adoption of the same session
// (the Recover path, or a deliberate resume of an idle-GC'd session) and
// is allowed.
func checkDurableDir(dir string, next SessionSpec) error {
	existing, err := readManifest(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("server: session %q: unreadable manifest under %s (destroy the session to discard it): %w", next.Name, dir, err)
	}
	if conflict := manifestConflict(existing, next); conflict != "" {
		return fmt.Errorf("server: session %q already has durable state under %s with a different spec (%s); destroy the session to discard it, or recreate it with the original spec", next.Name, dir, conflict)
	}
	return nil
}

// manifestConflict compares the persisted manifest against the one a new
// Create would write and names the first replay-affecting difference (""
// when compatible). Zero/empty numeric and string fields mean "inherit the
// template" in older manifests, so they conflict only with a concrete
// value on both sides — a daemon restarted with different flags must still
// re-adopt its sessions; likewise a manifest from before adaptivity was
// pinned has no adaptiveRates and conflicts with neither value. Clock and
// Pinned are lifecycle knobs with no effect on replay.
func manifestConflict(a, b SessionSpec) string {
	num := func(x, y float64) bool { return x != y && x != 0 && y != 0 }
	str := func(x, y string) bool { return x != y && x != "" && y != "" }
	switch {
	case num(float64(a.Seed), float64(b.Seed)):
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case num(float64(a.Retention), float64(b.Retention)):
		return fmt.Sprintf("retention %d vs %d", a.Retention, b.Retention)
	case str(a.Source, b.Source):
		return fmt.Sprintf("source %q vs %q", a.Source, b.Source)
	case num(float64(a.IngestBuffer), float64(b.IngestBuffer)):
		return fmt.Sprintf("ingestBuffer %d vs %d", a.IngestBuffer, b.IngestBuffer)
	case num(a.IngestTolerance, b.IngestTolerance):
		return fmt.Sprintf("ingestTolerance %g vs %g", a.IngestTolerance, b.IngestTolerance)
	case str(a.LatePolicy, b.LatePolicy):
		return fmt.Sprintf("latePolicy %q vs %q", a.LatePolicy, b.LatePolicy)
	case a.AdaptiveRates != nil && b.AdaptiveRates != nil && *a.AdaptiveRates != *b.AdaptiveRates:
		return fmt.Sprintf("adaptiveRates %t vs %t", *a.AdaptiveRates, *b.AdaptiveRates)
	}
	return ""
}

// ManagerConfig assembles a session manager.
type ManagerConfig struct {
	// NewEngine builds an engine per session.
	NewEngine EngineFactory
	// MaxSessions caps concurrently hosted sessions (0 = DefaultMaxSessions).
	MaxSessions int
	// IdleTTL, when positive, enables lazy GC: an unpinned session not
	// resolved for IdleTTL is destroyed on the next manager operation. There
	// is no background sweeper; GC piggybacks on Create/Get/List.
	IdleTTL time.Duration
	// DurabilityDir is the manager-wide durability root (the same directory
	// the engine factory's template points at). When set, Recover scans
	// root/sessions/*/session.json and re-creates every session found —
	// each engine then replays its own WAL inside the factory.
	DurabilityDir string
	// EpochSlots caps concurrently executing epochs across all sessions
	// (0 = DefaultEpochSlots); under contention the fair scheduler grants
	// slots in weighted virtual-time order. See DESIGN.md, "Overload
	// protection and fairness".
	EpochSlots int
}

// DefaultMaxSessions bounds a manager whose config leaves MaxSessions zero.
const DefaultMaxSessions = 64

// DefaultEpochSlots is the concurrent-epoch cap when ManagerConfig leaves
// EpochSlots zero: half the scheduler's CPUs (each epoch already fans out
// over the fabricator's worker pool, so running every session's epoch at
// once oversubscribes cores and lets a flooded session degrade everyone).
func DefaultEpochSlots() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	return n
}

// Manager hosts many named engine sessions behind one process — the
// multi-tenant counterpart of a single Engine. All methods are safe for
// concurrent use.
type Manager struct {
	cfg   ManagerConfig
	now   func() time.Time // injectable for GC tests
	sched *FairScheduler   // weighted-fair epoch dispatch across sessions

	mu       sync.Mutex
	sessions map[string]*Session
	// retiring holds the names whose engine is shutting down, each with a
	// channel closed once the shutdown — and, for Destroy, the purge of the
	// durable state — has returned. Until then the name stays taken: no
	// second engine may open its durability directory.
	retiring map[string]chan struct{}
	seq      int
	closed   bool
}

// NewManager builds an empty manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.NewEngine == nil {
		return nil, errors.New("server: NewManager requires an engine factory")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.EpochSlots <= 0 {
		cfg.EpochSlots = DefaultEpochSlots()
	}
	return &Manager{
		cfg:      cfg,
		now:      time.Now,
		sched:    NewFairScheduler(cfg.EpochSlots),
		sessions: make(map[string]*Session),
		retiring: make(map[string]chan struct{}),
	}, nil
}

// ErrSessionExists is returned when creating a session under a taken name.
var ErrSessionExists = errors.New("server: session already exists")

// ErrNoSession is returned when resolving an unknown session.
var ErrNoSession = errors.New("server: no such session")

// ErrTooManySessions is returned when the manager is at MaxSessions.
var ErrTooManySessions = errors.New("server: session limit reached")

// ErrManagerClosed is returned by every session operation after Close. It is
// distinct from ErrNoSession on purpose: a closed manager no longer knows
// which sessions exist, so "not here" from it says nothing about "gone" —
// over HTTP it is a retryable 503, never a 404.
var ErrManagerClosed = errors.New("server: manager closed")

// Create builds and registers a session from the spec, starting its clock
// when the spec asks for one (positive Interval or Simulated).
func (m *Manager) Create(spec SessionSpec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.gcLocked()
	if spec.Name != "" {
		m.awaitRetiredLocked(spec.Name)
	}
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	if spec.Name == "" {
		for {
			m.seq++
			spec.Name = fmt.Sprintf("s%d", m.seq)
			if _, taken := m.sessions[spec.Name]; !taken && m.retiring[spec.Name] == nil {
				break
			}
		}
	} else if _, taken := m.sessions[spec.Name]; taken {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, spec.Name)
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d)", ErrTooManySessions, m.cfg.MaxSessions)
	}
	// Reserve the name while building outside the lock.
	m.sessions[spec.Name] = nil
	m.mu.Unlock()

	engine, err := m.cfg.NewEngine(spec)
	if err == nil && engine == nil {
		err = errors.New("server: engine factory returned nil")
	}
	if err != nil {
		m.mu.Lock()
		delete(m.sessions, spec.Name)
		m.mu.Unlock()
		return nil, err
	}
	// Every session steps through the fair scheduler; the gate attaches
	// before the clock starts so the first epoch is already arbitrated.
	engine.SetEpochGate(m.sched.Session(spec.Weight))
	now := m.now()
	sess := &Session{Name: spec.Name, Engine: engine, Spec: spec, Created: now, lastAccess: now}
	if spec.Clock.Interval > 0 || spec.Clock.Simulated {
		if err := engine.Start(context.Background()); err != nil {
			m.mu.Lock()
			delete(m.sessions, spec.Name)
			m.mu.Unlock()
			return nil, err
		}
	}
	m.mu.Lock()
	if m.closed {
		// Close ran while the engine was being built: don't leak a running
		// session into a closed manager.
		delete(m.sessions, spec.Name)
		m.mu.Unlock()
		_ = engine.Shutdown()
		return nil, ErrManagerClosed
	}
	m.sessions[spec.Name] = sess
	m.mu.Unlock()
	return sess, nil
}

// Recover re-adopts every durable session found under the manager's
// durability root (DurableSpecs): each session is re-created from its
// manifest through the normal factory, which restores its snapshot and
// replays the WAL after it — queries, watermark, estimator state and result
// cursors resume where the previous process stopped. Sessions whose name is
// already live are skipped (not an error), so Recover is safe to call once
// on startup before any default-session creation. It returns the recovered
// session names sorted; unreadable manifests and per-session failures are
// joined into the error but do not stop the scan.
func (m *Manager) Recover() ([]string, error) {
	if m.cfg.DurabilityDir == "" {
		return nil, nil
	}
	specs, errs, err := DurableSpecs(m.cfg.DurabilityDir)
	if err != nil {
		return nil, fmt.Errorf("server: recover: %w", err)
	}
	if errs != nil {
		errs = fmt.Errorf("server: recover: %w", errs)
	}
	var recovered []string
	for _, spec := range specs {
		m.mu.Lock()
		_, taken := m.sessions[spec.Name]
		m.mu.Unlock()
		if taken {
			continue
		}
		if _, cerr := m.Create(spec); cerr != nil {
			errs = errors.Join(errs, fmt.Errorf("server: recover %s: %w", spec.Name, cerr))
			continue
		}
		recovered = append(recovered, spec.Name)
	}
	return recovered, errs
}

// DurableSessions lists the session names with durable state under the
// manager's durability root — every readable manifest DurableSpecs finds,
// live or not, sorted by name. A cluster gateway uses this to decide which
// sessions exist at all before assigning them to ring owners; a manager
// without a durability root reports none.
func (m *Manager) DurableSessions() ([]string, error) {
	if m.cfg.DurabilityDir == "" {
		return nil, nil
	}
	specs, _, err := DurableSpecs(m.cfg.DurabilityDir)
	if err != nil {
		return nil, fmt.Errorf("server: durable sessions: %w", err)
	}
	var names []string
	for _, spec := range specs {
		names = append(names, spec.Name)
	}
	return names, nil
}

// DurableSpecs returns the specs the manifests under root/sessions/* hold,
// sorted by session name. A directory without a manifest is skipped; one
// whose manifest is unreadable or names no session is reported in
// unreadable, one joined error each. err is set only when root/sessions
// exists and cannot be listed.
func DurableSpecs(root string) (specs []SessionSpec, unreadable, err error) {
	entries, err := os.ReadDir(filepath.Join(root, "sessions"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		spec, rerr := readManifest(filepath.Join(root, "sessions", ent.Name()))
		switch {
		case errors.Is(rerr, os.ErrNotExist):
		case rerr != nil:
			unreadable = errors.Join(unreadable, fmt.Errorf("%s: %w", ent.Name(), rerr))
		case spec.Name == "":
			unreadable = errors.Join(unreadable, fmt.Errorf("%s: manifest has no session name", ent.Name()))
		default:
			specs = append(specs, spec)
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, unreadable, nil
}

// RecoverSession re-adopts one named session from its durable state: the
// persisted manifest is loaded and the session re-created through the
// normal factory, which restores its snapshot and replays the WAL after
// it. Already-live sessions are left untouched (recovered=false); a name
// whose engine is still shutting down is waited for and then recovered; a
// name with no durable state is ErrNoSession.
// This is the cluster handoff primitive: after a node dies, the new ring
// owner recovers the displaced session from the shared durability volume.
func (m *Manager) RecoverSession(name string) (recovered bool, err error) {
	m.mu.Lock()
	m.awaitRetiredLocked(name)
	_, live := m.sessions[name]
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return false, ErrManagerClosed
	}
	if m.cfg.DurabilityDir == "" {
		return false, errors.New("server: recover session: no durability root configured")
	}
	if live {
		return false, nil
	}
	spec, err := readManifest(sessionDir(m.cfg.DurabilityDir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("%w: %q has no durable state", ErrNoSession, name)
		}
		return false, fmt.Errorf("server: recover session %q: %w", name, err)
	}
	if spec.Name != name {
		return false, fmt.Errorf("server: recover session %q: manifest names %q", name, spec.Name)
	}
	if _, err := m.Create(spec); err != nil {
		return false, fmt.Errorf("server: recover session %q: %w", name, err)
	}
	return true, nil
}

// Release stops serving a session without purging its durable state: the
// engine drains and every result store closes (streams end cleanly), but
// the WAL, snapshots and manifest stay on disk for another process — or
// this one — to re-adopt via RecoverSession. The counterpart of Destroy for
// cluster rebalancing: ownership moves, history does not disappear.
func (m *Manager) Release(name string) error {
	m.mu.Lock()
	sess, closed := m.sessions[name], m.closed
	if closed || sess == nil {
		m.mu.Unlock()
		if closed {
			return ErrManagerClosed
		}
		return fmt.Errorf("%w: %q", ErrNoSession, name)
	}
	free := m.retireLocked(name)
	m.mu.Unlock()
	defer free()
	return sess.Engine.Shutdown()
}

// Get resolves a session by name, refreshing its idle-GC deadline.
func (m *Manager) Get(name string) (*Session, error) {
	m.mu.Lock()
	m.gcLocked()
	sess, closed := m.sessions[name], m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrManagerClosed
	}
	if sess == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, name)
	}
	sess.touch(m.now())
	return sess, nil
}

// List returns the live sessions sorted by name.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	m.gcLocked()
	out := make([]*Session, 0, len(m.sessions))
	for _, sess := range m.sessions {
		if sess != nil { // skip reservations mid-Create
			out = append(out, sess)
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live sessions (names reserved by an in-flight
// Create are not counted, matching List).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, sess := range m.sessions {
		if sess != nil {
			n++
		}
	}
	return n
}

// Destroy removes a session and shuts its engine down: the clock drains and
// every query's result store is closed, so streaming readers see a clean
// end of stream rather than hanging on a dead engine. Destroy means
// forget: a durable session's on-disk state (WAL, snapshots, manifest) is
// purged, so the name is reusable for a fresh session — unlike Close and
// idle GC, which keep the directory for later re-adoption. Destroying a
// name that has no live session but does have leftover durable state
// purges the directory and succeeds. Either way the name stays taken until
// the engine has shut down and the directory is gone.
func (m *Manager) Destroy(name string) error {
	m.mu.Lock()
	m.awaitRetiredLocked(name)
	sess, reserved := m.sessions[name]
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	// With no live session, durable state may still linger on disk — an
	// idle-GC'd session, or a directory whose recovery failed. DELETE is the
	// purge path for those too, unless a Create is building on it right now;
	// its manifest says whether the session ran without fsyncs.
	var purge DurabilityConfig
	if sess != nil && sess.Engine.dur != nil {
		purge = sess.Engine.dur.cfg
	} else if sess == nil && m.cfg.DurabilityDir != "" && !reserved {
		purge = DurabilityConfig{Dir: sessionDir(m.cfg.DurabilityDir, name), FS: wal.OS}
		if _, serr := os.Stat(purge.Dir); serr != nil {
			purge.Dir = ""
		} else if spec, merr := readManifest(purge.Dir); merr == nil {
			purge.Fsync, _ = wal.ParsePolicy(spec.FsyncPolicy)
		}
	}
	if sess == nil && purge.Dir == "" {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSession, name)
	}
	free := m.retireLocked(name)
	m.mu.Unlock()
	defer free()
	var err error
	if sess != nil {
		err = sess.Engine.Shutdown()
	}
	if purge.Dir != "" {
		rerr := removeTree(purge.FS, purge.Dir)
		if rerr == nil && purge.Fsync != wal.FsyncNever {
			// Only a synced sessions/ keeps the purge through a power cut.
			rerr = purge.FS.SyncDir(filepath.Dir(purge.Dir))
		}
		if rerr != nil {
			err = errors.Join(err, fmt.Errorf("server: purging durable state of %q: %w", name, rerr))
		}
	}
	return err
}

// removeTree removes dir and everything below it through fsys.
func removeTree(fsys wal.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		if ent.IsDir() {
			err = removeTree(fsys, path)
		} else {
			err = fsys.Remove(path)
		}
		if err != nil {
			return err
		}
	}
	return fsys.Remove(dir)
}

// retireLocked takes name out of service but keeps it taken (m.retiring)
// until the returned func, called once the engine's shutdown and any purge
// have returned, frees it. Callers hold m.mu; free takes it.
func (m *Manager) retireLocked(name string) (free func()) {
	delete(m.sessions, name)
	done := make(chan struct{})
	m.retiring[name] = done
	return func() {
		m.mu.Lock()
		delete(m.retiring, name)
		m.mu.Unlock()
		close(done)
	}
}

// awaitRetiredLocked waits until name is no longer retiring. Callers hold
// m.mu; it is released while waiting.
func (m *Manager) awaitRetiredLocked(name string) {
	for done := m.retiring[name]; done != nil; done = m.retiring[name] {
		m.mu.Unlock()
		<-done
		m.mu.Lock()
	}
}

// gcLocked destroys unpinned sessions idle past IdleTTL. Callers hold m.mu;
// engine shutdown happens asynchronously so a slow drain never blocks the
// manager, but the name stays taken until it is done.
func (m *Manager) gcLocked() {
	if m.cfg.IdleTTL <= 0 {
		return
	}
	deadline := m.now().Add(-m.cfg.IdleTTL)
	for name, sess := range m.sessions {
		if sess == nil || sess.Spec.Pinned {
			continue
		}
		if sess.LastAccess().Before(deadline) {
			free := m.retireLocked(name)
			go func(e *Engine) {
				_ = e.Shutdown()
				free()
			}(sess.Engine)
		}
	}
}

// touchInterval returns how often a long-lived consumer (an open stream)
// must re-resolve its session to stay ahead of idle GC; zero when GC is
// disabled.
func (m *Manager) touchInterval() time.Duration {
	if m.cfg.IdleTTL <= 0 {
		return 0
	}
	return m.cfg.IdleTTL / 2
}

// Close stops every session, waits for those already shutting down, and
// refuses further use.
func (m *Manager) Close() error {
	// Retire the fairness gate first: every parked epoch is granted and
	// future acquisitions pass through, so draining clocks can never wedge
	// behind the scheduler during shutdown.
	m.sched.Close()
	m.mu.Lock()
	m.closed = true
	sessions := make([]*Session, 0, len(m.sessions))
	for name, sess := range m.sessions {
		if sess != nil {
			sessions = append(sessions, sess)
		}
		delete(m.sessions, name)
	}
	retiring := make([]chan struct{}, 0, len(m.retiring))
	for _, done := range m.retiring {
		retiring = append(retiring, done)
	}
	m.mu.Unlock()
	var err error
	for _, sess := range sessions {
		if serr := sess.Engine.Shutdown(); serr != nil {
			err = errors.Join(err, fmt.Errorf("server: stopping session %s: %w", sess.Name, serr))
		}
	}
	for _, done := range retiring {
		<-done
	}
	return err
}
