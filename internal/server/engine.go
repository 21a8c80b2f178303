// Package server wires the full CrAQR architecture of Fig. 1: mobile
// sensors → request/response handler → crowdsensed stream fabricator →
// acquired crowdsensed streams, with query input feeding the fabricator and
// the F-operators' rate violations feeding budget tuning.
//
// The Engine runs the loop in-process. Submit builds every query with the
// fabricator's one merge layout; internal/planner only answers what-ifs —
// Engine.Explain serves the CrAQL EXPLAIN statement and the plan route.
// With Config.AdaptiveRates the engine also closes the paper's
// budget-feedback loop end to end each epoch: normalized violations from
// every F-operator feed a budget.Controller whose RateScale retunes starved
// pipelines through the topology layer (see DESIGN.md, "Planning and
// adaptivity").
//
// A Manager hosts many named engine sessions behind one process, and the
// net/http façade (http.go) exposes the whole surface over JSON — sessions
// CRUD, CrAQL submission, plan inspection, cursor-paginated reads and
// push streaming; docs/API.md is the route-by-route reference, kept in
// lockstep by scripts/docs_check.sh.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"repro/internal/budget"
	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/handler"
	"repro/internal/incentive"
	"repro/internal/ingest"
	"repro/internal/planner"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Config assembles an engine.
type Config struct {
	// Region is the geographical area of interest R.
	Region geom.Rect
	// GridCells is h, the number of grid cells (a perfect square).
	GridCells int
	// Epoch is the acquisition epoch length in time units.
	Epoch float64
	// Budget configures the tuning controller.
	Budget budget.Config
	// Fabricator configures pipelines, merge topology and the epoch worker
	// pool (Fabricator.Workers: 0 = sized per epoch, at most GOMAXPROCS;
	// 1 = serial). Serial and parallel runs of the same Seed fabricate
	// byte-identical streams.
	Fabricator topology.Config
	// Fleet describes the synthetic sensor fleet.
	Fleet sensors.FleetConfig
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// Incentives, when non-nil, enables the Section VI incentive extension:
	// the allocator is fed violation pressure and the handler consults it.
	Incentives *incentive.Allocator
	// Retention bounds the per-query result store: each query keeps its most
	// recent Retention tuples and accounts older ones as drops
	// (0 = stream.DefaultRetention). See DESIGN.md, "Result retention and
	// delivery".
	Retention int
	// Clock configures the engine's own epoch driver used by Start; Step/Run
	// remain available for manual driving.
	Clock ClockConfig
	// AdaptiveRates enables the per-epoch rate-retune feedback loop: a
	// second budget controller observes every cell's normalized violations
	// (pmat.ViolationReport.Percent) and rescales starved pipelines through
	// Fabricator.Retune (see DESIGN.md, "Planning and adaptivity").
	AdaptiveRates bool
	// Source selects where epochs acquire observations from: the simulated
	// fleet (default), externally pushed observations, or both (see
	// DESIGN.md, "External ingestion and watermarks").
	Source SourceConfig
	// Durability, when Dir is non-empty, write-ahead logs every state
	// mutation, snapshots the session periodically, and on construction
	// recovers it from its snapshots plus a replay of the log after them (see
	// DESIGN.md, "Durability and recovery").
	Durability DurabilityConfig
	// Limits is the session's admission-control envelope: ingest rate
	// limits and resident-state quotas, all off by default (zero =
	// unlimited). Enforced at the gateway boundary (AdmitIngest, Submit),
	// never on replay. See DESIGN.md, "Overload protection and fairness".
	Limits TenantLimits
}

// SourceMode selects an engine's observation source composition.
type SourceMode int

const (
	// SourceSimulated acquires purely from the synthetic fleet via the
	// request/response handler — the pre-ingest behavior.
	SourceSimulated SourceMode = iota
	// SourceExternal acquires purely from observations pushed through the
	// ingest gateway; epochs close on the event-time watermark.
	SourceExternal
	// SourceMixed runs the fleet and the ingest queue side by side, merging
	// per epoch; the watermark gates epochs once a producer is active.
	SourceMixed
)

// String renders the mode ("simulated", "external", "mixed").
func (m SourceMode) String() string {
	switch m {
	case SourceSimulated:
		return "simulated"
	case SourceExternal:
		return "external"
	case SourceMixed:
		return "mixed"
	default:
		return fmt.Sprintf("SourceMode(%d)", int(m))
	}
}

// ParseSourceMode parses "simulated", "external" or "mixed".
func ParseSourceMode(s string) (SourceMode, error) {
	switch s {
	case "simulated", "":
		return SourceSimulated, nil
	case "external":
		return SourceExternal, nil
	case "mixed":
		return SourceMixed, nil
	default:
		return 0, fmt.Errorf("server: unknown source mode %q (want \"simulated\", \"external\" or \"mixed\")", s)
	}
}

// SourceConfig composes an engine's observation sources.
type SourceConfig struct {
	// Mode selects the composition (default SourceSimulated).
	Mode SourceMode
	// Buffer bounds the ingest queue in tuples (0 = ingest.DefaultBuffer);
	// pushes beyond it are rejected and counted, never blocked on.
	Buffer int
	// Tolerance is the allowed event-time out-of-orderness: the low
	// watermark trails the maximum pushed event time by this much, so an
	// epoch stays open that long after the first observation past its end.
	Tolerance float64
	// Late selects the late-tuple policy (default ingest.LateDrop).
	Late ingest.LatePolicy
}

// DefaultAdaptiveConfig is the rate-retune controller configuration: β
// starts (and recovers to) 100, moves ±25 per epoch and caps at 400, so
// budget.RateScale spans [0.25, 1] — a starved cell converges to a quarter
// of its nominal rate in a dozen epochs before being flagged infeasible.
// violationThreshold is the percent N_v above which a cell counts as
// starved.
func DefaultAdaptiveConfig(violationThreshold float64) budget.Config {
	return budget.Config{Initial: 100, Delta: 25, Min: 100, Max: 400, ViolationThreshold: violationThreshold}
}

// Engine is a running CrAQR instance.
type Engine struct {
	cfg     Config
	grid    *geom.Grid
	budgets *budget.Controller
	handler *handler.Handler
	fab     *topology.Fabricator

	// adaptive is the rate-retune controller (nil when Config.AdaptiveRates
	// is off).
	adaptive *budget.Controller

	// queue is the external ingest buffer and pushed assembles its epochs
	// (both nil in SourceSimulated mode); see acquire.
	queue  *ingest.Queue
	pushed *ingest.QueueSource

	// dur is the write-ahead log attachment (nil on non-durable engines).
	dur *durableState

	// limiter enforces Config.Limits (nil when no limits are set — the
	// unlimited path stays lock-free).
	limiter *tenantLimiter

	mu sync.Mutex
	// gate, when set, is the manager's fair-scheduler handle every epoch
	// acquires before running (guarded by mu; see SetEpochGate).
	gate    *schedSession
	stepMu  sync.Mutex // serializes epochs across callers (HTTP, tickers)
	now     float64
	epochs  int
	results map[string]*stream.ResultStore
	// retiredDrops carries the evictions of deleted queries' stores, so
	// RetentionDrops never goes backwards (guarded by mu).
	retiredDrops uint64
	// attrScratch is Step's reusable attr list, liveScratch and adaptScratch
	// observeEpoch's reusable adaptive-slot set and list (all guarded by
	// stepMu), keeping the per-epoch glue allocation-free.
	attrScratch  []string
	liveScratch  map[budget.Key]bool
	adaptScratch []topology.Key
	// nvSum/nvN accumulate every (cell, epoch) normalized-violation sample —
	// MeanViolation is the adaptivity acceptance metric.
	nvSum float64
	nvN   int
	// fitIterations/fitsNotConverged total the same reports' fit diagnostics:
	// Newton iterations spent by the F-operators' MLE fits, and the fits that
	// did not converge — a session whose estimator stopped converging shows
	// here, not only in a profile.
	fitIterations    uint64
	fitsNotConverged uint64

	clock clockState // Start/Stop lifecycle (lifecycle.go)
}

// New assembles an engine from the config and ground-truth fields.
func New(cfg Config, fields map[string]sensors.Field) (*Engine, error) {
	if len(fields) == 0 {
		return nil, errors.New("server: New requires at least one field")
	}
	if cfg.Epoch <= 0 {
		return nil, errors.New("server: Epoch must be positive")
	}
	if cfg.Durability.Dir != "" && cfg.Incentives != nil {
		// The allocator is the caller's object: a snapshot cannot restore it.
		return nil, errors.New("server: durable sessions cannot use Config.Incentives")
	}
	rng := stats.NewRNG(cfg.Seed)
	grid, err := geom.NewGrid(cfg.Region, cfg.GridCells)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	fleet, err := sensors.BuildFleet(cfg.Region, cfg.Fleet, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	budgets, err := budget.NewController(cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Mixed-source epochs may materialize pipelines (and budget slots) for
	// externally fed attributes the fleet has no ground truth for.
	h, err := handler.New(handler.Config{
		EpochLength:      cfg.Epoch,
		SkipUnknownAttrs: cfg.Source.Mode == SourceMixed,
	}, grid, fleet, fields, budgets, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	fab, err := topology.New(grid, cfg.Fabricator, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	fab.AttachBudgets(budgets)
	if cfg.Incentives != nil {
		alloc := cfg.Incentives
		h.SetIncentive(func(k budget.Key) float64 { return alloc.Incentive(k) })
	}
	var adaptive *budget.Controller
	if cfg.AdaptiveRates {
		adaptive, err = budget.NewController(DefaultAdaptiveConfig(cfg.Budget.ViolationThreshold))
		if err != nil {
			return nil, fmt.Errorf("server: adaptive: %w", err)
		}
	}
	// The WAL opens before the queue so the queue can journal through it;
	// the log is replayed (initDurability) only once the engine is whole.
	var dur *durableState
	if cfg.Durability.Dir != "" {
		dcfg := cfg.Durability.withDefaults()
		wlog, werr := wal.Open(wal.Config{
			Dir:          filepath.Join(dcfg.Dir, "wal"),
			Fsync:        dcfg.Fsync,
			SegmentBytes: dcfg.SegmentBytes,
			ReadOnly:     dcfg.ReadOnly,
			FS:           dcfg.FS,
		})
		if werr != nil {
			return nil, fmt.Errorf("server: durability: %w", werr)
		}
		dur = &durableState{cfg: dcfg, log: wlog}
	}
	var (
		queue  *ingest.Queue
		pushed *ingest.QueueSource
	)
	switch cfg.Source.Mode {
	case SourceSimulated:
	case SourceExternal, SourceMixed:
		icfg := ingest.Config{
			Buffer:    cfg.Source.Buffer,
			Tolerance: cfg.Source.Tolerance,
			Late:      cfg.Source.Late,
			Region:    cfg.Region,
		}
		if dur != nil {
			icfg.Journal = dur
		}
		queue = ingest.NewQueue(icfg)
		if pushed, err = ingest.NewQueueSource(queue, cfg.Region); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	default:
		return nil, fmt.Errorf("server: unknown source mode %d", cfg.Source.Mode)
	}
	e := &Engine{
		cfg:         cfg,
		grid:        grid,
		budgets:     budgets,
		handler:     h,
		fab:         fab,
		adaptive:    adaptive,
		queue:       queue,
		pushed:      pushed,
		dur:         dur,
		limiter:     newTenantLimiter(cfg.Limits),
		results:     make(map[string]*stream.ResultStore),
		liveScratch: make(map[budget.Key]bool),
	}
	if dur != nil {
		// Recover whatever the durability directory already holds — restore
		// a snapshot, replay the log after it through the engine's own
		// machinery — then attach the journal.
		if err := e.initDurability(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Grid returns the engine's grid.
func (e *Engine) Grid() *geom.Grid { return e.grid }

// Budgets returns the budget controller.
func (e *Engine) Budgets() *budget.Controller { return e.budgets }

// Handler returns the request/response handler.
func (e *Engine) Handler() *handler.Handler { return e.handler }

// Fabricator returns the stream fabricator.
func (e *Engine) Fabricator() *topology.Fabricator { return e.fab }

// Now returns the current simulation time.
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Epochs returns the number of completed epochs.
func (e *Engine) Epochs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epochs
}

// Submit registers an acquisitional query and returns its stored form. The
// query's fabricated stream lands in a bounded ResultStore (Config.Retention
// tuples) readable incrementally via ResultStore(id).ReadFrom or wholesale
// via Results; a query that joins a resident subplan reads that subplan's
// ring from its own cursor 0 instead of filling a ring of its own.
// ExplainQuery shows the query's pricing.
func (e *Engine) Submit(q query.Query) (query.Query, error) {
	// The resident-query quota refuses before anything mutates; the HTTP
	// layer maps the typed error to 429.
	if err := e.admitQuery(); err != nil {
		return query.Query{}, err
	}
	if e.dur != nil {
		// Reject queries the journal cannot frame before anything mutates:
		// the submit record must be appendable or the engine's state would
		// diverge from its log (the engine-assigned ID is short; only the
		// caller's attr can blow the string bound).
		if err := (&wal.Record{Type: wal.TypeSubmit, Attr: q.Attr}).Check(); err != nil {
			return query.Query{}, fmt.Errorf("server: query is not journalable: %w", err)
		}
		// Durable engines serialize control-plane mutations on the epoch
		// lock: the WAL's record order then is the effect order against
		// epoch closes, which deterministic replay depends on.
		e.stepMu.Lock()
		defer e.stepMu.Unlock()
	}
	store := stream.NewResultStore(e.cfg.Retention)
	stored, err := e.fab.InsertQuery(q, store)
	if err != nil {
		return query.Query{}, err
	}
	e.mu.Lock()
	e.results[stored.ID] = store
	e.mu.Unlock()
	if e.dur != nil {
		r := stored.Region
		e.dur.append(&wal.Record{Type: wal.TypeSubmit, QueryID: stored.ID, Attr: stored.Attr,
			Rect: [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}, Rate: stored.Rate})
		if cerr := e.dur.commit(); cerr != nil {
			return query.Query{}, &DurabilityError{Err: cerr}
		}
	}
	return stored, nil
}

// Explain parses a CrAQL statement — the EXPLAIN form or a plain query —
// and prices it against the engine's grid and epoch length under
// planner.DefaultWeights without submitting anything. Explanation.Table is
// the canonical text rendering — plus, when the query's normal form is
// already served by a shared subplan with two or more attached queries, a
// trailing "shared:" line reporting the live subplan's refcount.
func (e *Engine) Explain(src string) (planner.Explanation, error) {
	st, err := craql.ParseStatement(src)
	if err != nil {
		return planner.Explanation{}, err
	}
	return e.ExplainQuery(st.Query)
}

// ExplainQuery prices an already-parsed query (see Explain) and annotates
// the explanation with the live shared subplan serving its normal form,
// when one exists with ≥ 2 members.
func (e *Engine) ExplainQuery(q query.Query) (planner.Explanation, error) {
	ex, err := planner.Explain(e.grid, q, e.cfg.Epoch, planner.DefaultWeights())
	if err != nil {
		return planner.Explanation{}, err
	}
	if g, ok := e.fab.SharedGroup(craql.CanonicalKey(q)); ok && g.Refs >= 2 {
		ex.Shared = &planner.SharedPlan{Refs: g.Refs}
	}
	return ex, nil
}

// SubmitCRAQL parses a CrAQL statement and submits it.
func (e *Engine) SubmitCRAQL(src string) (query.Query, error) {
	q, err := craql.Parse(src)
	if err != nil {
		return query.Query{}, err
	}
	return e.Submit(q)
}

// SubmitScript parses a multi-statement CrAQL script (";"-separated, "--"
// comments) and submits every query, returning the stored queries in
// script order. On a mid-script failure the already-inserted queries are
// rolled back so the script is all-or-nothing.
func (e *Engine) SubmitScript(src string) ([]query.Query, error) {
	qs, err := craql.ParseScript(src)
	if err != nil {
		return nil, err
	}
	stored := make([]query.Query, 0, len(qs))
	for _, q := range qs {
		s, err := e.Submit(q)
		if err != nil {
			err = fmt.Errorf("server: script query %q: %w", craql.Format(q), err)
			for _, prev := range stored {
				if derr := e.Delete(prev.ID); derr != nil {
					err = errors.Join(err, fmt.Errorf("server: script rollback of %s: %w", prev.ID, derr))
				}
			}
			return nil, err
		}
		stored = append(stored, s)
	}
	return stored, nil
}

// SubmitWithSink registers a query whose stream is delivered to a custom
// processor instead of an internal collector. Durable engines reject it: a
// caller-owned sink cannot be reconstructed by replay, so the query would
// silently vanish on recovery.
func (e *Engine) SubmitWithSink(q query.Query, sink stream.Processor) (query.Query, error) {
	if e.dur != nil {
		return query.Query{}, errors.New("server: SubmitWithSink is unavailable on durable sessions (custom sinks cannot be recovered by replay)")
	}
	return e.fab.InsertQuery(q, sink)
}

// Delete removes a live query; the fabricator closes its result store with
// it, unblocking any streaming readers.
func (e *Engine) Delete(id string) error {
	if e.dur != nil {
		e.stepMu.Lock()
		defer e.stepMu.Unlock()
	}
	if err := e.fab.DeleteQuery(id); err != nil {
		return err
	}
	e.mu.Lock()
	store := e.results[id]
	delete(e.results, id)
	if store != nil {
		// DeleteQuery closed the store, so its count is final.
		e.retiredDrops += store.Dropped()
	}
	e.mu.Unlock()
	if e.dur != nil {
		e.dur.append(&wal.Record{Type: wal.TypeDelete, QueryID: id})
		if cerr := e.dur.commit(); cerr != nil {
			return &DurabilityError{Err: cerr}
		}
	}
	return nil
}

// ResultStore returns the bounded store backing a query submitted via
// Submit; streaming readers use it directly (ReadFrom/Wait).
func (e *Engine) ResultStore(id string) (*stream.ResultStore, error) {
	e.mu.Lock()
	store, ok := e.results[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: no result store for query %q", id)
	}
	return store, nil
}

// Results returns the retained tuples for a query submitted via Submit —
// at most Config.Retention of the most recent ones. Readers that must not
// miss tuples page with ResultStore(id).ReadFrom instead.
func (e *Engine) Results(id string) ([]stream.Tuple, error) {
	store, err := e.ResultStore(id)
	if err != nil {
		return nil, err
	}
	return store.Tuples(), nil
}

// Queries lists the live queries.
func (e *Engine) Queries() []query.Query { return e.fab.Queries() }

// ErrEpochOpen is returned by Step when the engine gates epochs on an
// event-time watermark that has not yet passed the epoch's end: the
// epoch is still open for observations and fabricating it now could miss
// in-tolerance arrivals. Clocked engines skip the tick (or park until the
// watermark advances); manual steppers retry after pushing more data or
// asserting a watermark.
var ErrEpochOpen = errors.New("server: epoch open: ingest watermark below epoch end")

// Step runs one acquisition epoch: acquire gathers the epoch's observations
// — the simulated handler spending its budgets, the ingest queue draining
// externally pushed tuples, or both merged — the batches are
// ingested through the fabricator (cell pipelines executing on the
// fabricator's worker pool), and the F-operators' violation reports tune
// the budgets, the adaptive rates and the incentives (observeEpoch). Epochs
// are serialized; queries submitted concurrently with Step take effect at
// the next epoch boundary. When the engine is gated and the watermark has
// not reached the epoch's end, Step returns ErrEpochOpen without advancing
// time.
func (e *Engine) Step() error { return e.StepCtx(context.Background()) }

// StepCtx is Step with cancellation: when the engine is gated by a
// manager's fair scheduler, the epoch first acquires its slot in
// virtual-time order, and ctx cancels a parked acquisition (the clock's
// stop path, or an HTTP caller going away). Ungated engines never block
// here.
func (e *Engine) StepCtx(ctx context.Context) error {
	e.mu.Lock()
	gate := e.gate
	e.mu.Unlock()
	if gate != nil {
		release, err := gate.Acquire(ctx)
		if err != nil {
			return err
		}
		defer release()
	}
	return e.step()
}

// SetEpochGate attaches the fair-scheduler handle every subsequent epoch
// acquires before running; nil detaches. Managers call this when
// registering the session's engine.
func (e *Engine) SetEpochGate(g *schedSession) {
	e.mu.Lock()
	e.gate = g
	e.mu.Unlock()
}

// step runs the epoch body (see Step); the caller holds no locks.
func (e *Engine) step() error {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	if e.dur != nil {
		// A failed WAL append poisons the engine: advancing state the log
		// did not record would make the log a lie on the next recovery.
		if err := e.dur.failed(); err != nil {
			return &DurabilityError{Err: err}
		}
	}
	e.mu.Lock()
	t0 := e.now
	e.mu.Unlock()
	t1 := t0 + e.cfg.Epoch
	if e.gated() && !e.queue.Ready(t1) {
		return ErrEpochOpen
	}
	batches, err := e.acquire(t0, t1)
	if err != nil {
		return fmt.Errorf("server: epoch at t=%g: %w", t0, err)
	}
	e.mu.Lock()
	e.now = t1
	e.epochs++
	e.mu.Unlock()
	// Ingest every attribute that has live pipelines, including attributes
	// with no observations this epoch (empty batch → violation pressure), in
	// sorted attribute order — so which attribute's failure an epoch reports,
	// and the order sinks see attributes in, is the same on every run. A
	// batch for an attribute without pipelines has nowhere to go and is
	// skipped.
	window := geom.Window{T0: t0, T1: t1, Rect: e.grid.Region()}
	e.attrScratch = e.fab.AppendAttrs(e.attrScratch[:0])
	for _, attr := range e.attrScratch {
		b, ok := batches[attr]
		if !ok {
			b = stream.Batch{Attr: attr, Window: window}
		}
		if err := e.fab.Ingest(b); err != nil {
			if !ok {
				return fmt.Errorf("server: ingest empty %s: %w", attr, err)
			}
			return fmt.Errorf("server: ingest %s: %w", attr, err)
		}
	}
	if err := e.observeEpoch(); err != nil {
		return fmt.Errorf("server: epoch at t=%g: adaptive retune: %w", t0, err)
	}
	if e.dur != nil {
		if e.queue == nil {
			// Queue-sourced engines already wrote the epoch record at drain
			// time (ingest.Journal); purely simulated epochs record it here,
			// with the epoch count for replay verification.
			e.mu.Lock()
			now, epochs := e.now, uint64(e.epochs)
			e.mu.Unlock()
			e.dur.append(&wal.Record{Type: wal.TypeEpoch, T1: now, Epoch: epochs})
		}
		if err := e.dur.commit(); err != nil {
			return &DurabilityError{Err: err}
		}
		if err := e.maybeSnapshot(); err != nil {
			return fmt.Errorf("server: snapshot at t=%g: %w", t0, err)
		}
	}
	return nil
}

// acquire returns the observations of epoch [t0, t1) by attribute: the
// fleet's batches unless the source is external, then the drained pushes
// unless it is simulated. In mixed mode the pushed tuples follow the fleet's
// within each attribute, so the simulated tuples draw the pipelines' random
// numbers exactly as in a purely simulated run; the merge phase restores
// (T, ID) order downstream. The result may alias storage the next call
// reuses.
func (e *Engine) acquire(t0, t1 float64) (map[string]stream.Batch, error) {
	var fleet map[string]stream.Batch
	if e.cfg.Source.Mode != SourceExternal {
		var err error
		if fleet, err = e.handler.RunEpoch(t0); err != nil || e.pushed == nil {
			return fleet, err
		}
	}
	pushed, err := e.pushed.Acquire(t0, t1)
	if err != nil || fleet == nil {
		return pushed, err
	}
	for attr, b := range pushed {
		if fb, ok := fleet[attr]; ok {
			fb.Tuples = append(fb.Tuples, b.Tuples...)
			b = fb
		}
		fleet[attr] = b
	}
	return fleet, nil
}

// gated reports whether epochs close on the ingest watermark: always with an
// external source, and with a mixed one from the queue's first push or
// watermark assertion on, so an idle gateway never stalls the simulation.
func (e *Engine) gated() bool {
	return e.queue != nil && (e.cfg.Source.Mode == SourceExternal || e.queue.Active())
}

// observeEpoch closes the feedback loops after an epoch's ingest. It is the
// one reader of the F-operators' N_v reports: a single walk feeds each
// report, in order, to the acquisition budgets, the adaptive rate-retune
// controller, the incentive allocator's pressure and the MeanViolation and
// fit totals, skipping a report whose Batch is 0 (its F has not run since it
// was built). The walk holds the fabricator's read lock, so no concurrent
// Delete drops a budget slot mid-walk; the adaptive RateScales are applied
// (Fabricator.Retune) after it, and adaptive slots it did not see — their
// pipelines are gone — are unregistered.
func (e *Engine) observeEpoch() error {
	var sum float64
	var n int
	var fitIters, notConverged uint64
	live, adapt := e.liveScratch, e.adaptScratch[:0]
	clear(live)
	e.fab.VisitLastReports(func(k topology.Key, rep pmat.ViolationReport) {
		if rep.Batch == 0 {
			return
		}
		bk := budget.Key{Attr: k.Attr, Cell: k.Cell}
		e.budgets.Observe(bk, rep.Percent)
		if e.adaptive != nil {
			e.adaptive.Observe(bk, rep.Percent)
			live[bk] = true
			adapt = append(adapt, k)
		}
		if e.cfg.Incentives != nil {
			e.cfg.Incentives.ObservePressure(bk, rep.Percent)
		}
		sum += rep.Percent
		n++
		fitIters += uint64(rep.FitIterations)
		if rep.FitNotConverged {
			notConverged++
		}
	})
	e.adaptScratch = adapt
	e.mu.Lock()
	e.nvSum += sum
	e.nvN += n
	e.fitIterations += fitIters
	e.fitsNotConverged += notConverged
	e.mu.Unlock()
	if e.cfg.Incentives != nil {
		e.cfg.Incentives.Reallocate()
	}
	if e.adaptive == nil {
		return nil
	}
	e.adaptive.Retain(live)
	for _, k := range adapt {
		// RateScale is clamped to (0,1] and Retune no-ops on a key dropped
		// since the walk, so an error means the chain rejected a rescale -
		// pipeline corruption worth halting the clock over.
		scale, _ := e.adaptive.RateScale(budget.Key{Attr: k.Attr, Cell: k.Cell})
		if err := e.fab.Retune(k, scale); err != nil {
			return err
		}
	}
	return nil
}

// MeanViolation returns the mean normalized violation (N_v percent)
// observed across every (cell, epoch) sample since the engine started —
// the convergence metric of the adaptive-rates A/B comparison. Zero before
// the first epoch.
func (e *Engine) MeanViolation() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nvN == 0 {
		return 0
	}
	return e.nvSum / float64(e.nvN)
}

// AdaptiveEnabled reports whether the rate-retune feedback loop runs each
// epoch; exposed as "adaptive" in session and status JSON.
func (e *Engine) AdaptiveEnabled() bool { return e.adaptive != nil }

// Run executes n epochs. On a gated engine it returns
// ErrEpochOpen as soon as an epoch cannot close; RunReady is the
// stop-early variant.
func (e *Engine) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunReady executes up to n epochs, stopping early — without error — when
// the ingest watermark holds the next epoch open. It returns how many
// epochs completed; completed < n means the engine is waiting for ingest.
func (e *Engine) RunReady(n int) (int, error) {
	return e.RunReadyCtx(context.Background(), n)
}

// RunReadyCtx is RunReady with cancellation for the fair-scheduler gate:
// an HTTP step request that goes away while parked behind other sessions'
// epochs abandons its slot claim instead of running epochs for nobody.
func (e *Engine) RunReadyCtx(ctx context.Context, n int) (int, error) {
	for i := 0; i < n; i++ {
		if err := e.StepCtx(ctx); err != nil {
			if errors.Is(err, ErrEpochOpen) {
				return i, nil
			}
			return i, err
		}
	}
	return n, nil
}

// ErrNoIngest is returned by PushObservations on a simulated-source engine.
var ErrNoIngest = errors.New("server: session source accepts no external observations (simulated mode)")

// PushObservations feeds externally produced observation tuples into the
// engine's ingest queue (SourceExternal or SourceMixed). Tuples carry event
// times; watermark, when not NaN, asserts that no older observation will
// follow (see ingest.Queue.Push). The returned ack accounts every tuple —
// accepted, overflow-dropped, late, rejected — so producers see
// backpressure explicitly; nothing is ever silently lost.
func (e *Engine) PushObservations(tuples []stream.Tuple, watermark float64) (ingest.Ack, error) {
	if e.queue == nil {
		return ingest.Ack{}, ErrNoIngest
	}
	if e.dur != nil {
		// Reject batches the journal cannot frame (an attr over
		// wal.MaxStringLen, or a batch whose record would exceed
		// wal.MaxRecordBytes) before the queue applies them: once applied,
		// an unloggable batch would desynchronize state from the log. This
		// is the producer's batch failing, not a durability fault.
		rec := wal.Record{Type: wal.TypePush, Tuples: tuples, Watermark: watermark}
		if err := rec.Check(); err != nil {
			return ingest.Ack{}, fmt.Errorf("server: batch is not journalable: %w", err)
		}
	}
	ack, err := e.queue.Push(tuples, watermark)
	if err != nil {
		return ack, err
	}
	if e.dur != nil {
		// The ack barrier: the push's WAL record (appended under the queue
		// lock) must be durable under the configured fsync policy before the
		// producer is told its batch was accepted. Under FsyncBatch
		// concurrent producers coalesce onto one fsync.
		if cerr := e.dur.commit(); cerr != nil {
			return ingest.Ack{}, &DurabilityError{Err: cerr}
		}
	}
	return ack, nil
}

// SourceMode reports the engine's observation source composition.
func (e *Engine) SourceMode() SourceMode { return e.cfg.Source.Mode }

// IngestStats snapshots the ingest queue's accounting: tuples ingested,
// overflow-dropped, late, rejected, the current low watermark and the
// pending backlog. A simulated-source engine reports zeros with an unknown
// (−Inf) watermark.
func (e *Engine) IngestStats() ingest.Stats {
	if e.queue == nil {
		return ingest.Stats{Watermark: math.Inf(-1)}
	}
	return e.queue.Stats()
}

// Watermark returns the ingest queue's event-time low watermark, with
// ok=false on a simulated-source engine or when no watermark is known yet.
func (e *Engine) Watermark() (float64, bool) {
	if e.queue == nil {
		return 0, false
	}
	wm := e.queue.Watermark()
	if math.IsInf(wm, -1) {
		return 0, false
	}
	return wm, true
}

// waitSourceReady parks until the watermark lets the next epoch close, the
// queue is retired, or ctx is done — the simulated clock's alternative to
// spinning on ErrEpochOpen. An ungated engine returns at once.
func (e *Engine) waitSourceReady(ctx context.Context) error {
	if !e.gated() {
		return nil
	}
	e.mu.Lock()
	t1 := e.now + e.cfg.Epoch
	e.mu.Unlock()
	return e.queue.WaitReady(ctx, t1)
}
