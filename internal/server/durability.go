// Durability: the engine-side write-ahead log and snapshot layer behind
// crash-recoverable sessions (see DESIGN.md, "Durability and recovery").
//
// The engine's state is a deterministic function of its Config plus the
// ordered sequence of externally driven mutations: query submits/deletes,
// raw observation pushes, and epoch closes. Durable engines append exactly
// that sequence to an internal/wal log and recover by rebuilding the engine
// from its config and replaying the log through the normal Submit / Push /
// Step machinery — the same code paths, so the recovered session is
// byte-identical to the crashed one up to the last durable record.
//
// Snapshots are verification checkpoints, not state restores: the per-cell
// estimator state (warm-start θ) and RNG streams are not serializable, so
// recovery always replays from the log's beginning. A snapshot records the
// externally observable state (epochs, time, queries, result cursors,
// budgets, θ) at a known log position; replay re-derives that state and
// checks it against the checkpoint, turning silent non-determinism into a
// loud recovery error.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
)

// Snapshot cadence and retention defaults (DurabilityConfig zero values).
const (
	DefaultSnapshotEvery  = 16
	DefaultSnapshotRetain = 3
)

// DurabilityConfig enables crash-recoverable sessions: when Dir is
// non-empty the engine write-ahead logs every state mutation there and, on
// construction, recovers by replaying whatever the directory already holds.
type DurabilityConfig struct {
	// Dir is the session's durability directory (holds the wal/ segment
	// subdirectory and snap-*.json checkpoints). Empty disables durability.
	Dir string
	// Fsync selects when appended records become durable (default
	// wal.FsyncBatch: ingest acks group-commit on one fsync).
	Fsync wal.Policy
	// SnapshotEveryEpochs writes a verification checkpoint every N completed
	// epochs (0 = DefaultSnapshotEvery).
	SnapshotEveryEpochs int
	// Retain keeps the newest N snapshots on disk (0 = DefaultSnapshotRetain).
	Retain int
	// ReadOnly replays the directory without appending, truncating or
	// snapshotting — the offline craqr-replay tool's mode.
	ReadOnly bool
	// SegmentBytes overrides the WAL segment rotation threshold (tests).
	SegmentBytes int64
	// WrapFile interposes on WAL segment files (fault-injection tests).
	WrapFile func(f *os.File) (wal.File, error)
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotEveryEpochs <= 0 {
		c.SnapshotEveryEpochs = DefaultSnapshotEvery
	}
	if c.Retain <= 0 {
		c.Retain = DefaultSnapshotRetain
	}
	return c
}

// DurabilityError marks a server-side durability failure — a WAL append or
// fsync error, or a log closed mid-shutdown — on a request that was
// therefore not durably acked. The fault is the server's, not the caller's
// input: the HTTP layer maps it to 5xx (503 for the retryable closed-log
// case, 500 otherwise) so producers retry or surface an operational error
// instead of discarding a batch as malformed.
type DurabilityError struct{ Err error }

func (e *DurabilityError) Error() string { return "server: durability: " + e.Err.Error() }

func (e *DurabilityError) Unwrap() error { return e.Err }

// durableState is the engine's attachment to its WAL. It implements
// ingest.Journal, so the queue records pushes and drains in effect order;
// submits, deletes and simulated-mode epoch closes are appended by the
// engine under stepMu. attached gates all logging: it stays false during
// recovery replay (replayed records must not be re-appended) and forever on
// read-only logs.
type durableState struct {
	cfg      DurabilityConfig
	log      *wal.Log
	attached atomic.Bool

	mu                sync.Mutex
	err               error // sticky append failure: no further acks may succeed
	lastSnapshotEpoch int
	recovered         bool
	replayedRecords   int
	report            wal.ReplayReport
	snapshotVerified  bool
}

// fail records the first append failure; every later commit returns it, so
// a producer is never acked for a batch the log lost.
func (d *durableState) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

func (d *durableState) failed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *durableState) append(rec *wal.Record) {
	if err := d.log.Append(rec); err != nil {
		d.fail(err)
	}
}

// JournalPush implements ingest.Journal (called under the queue's lock).
func (d *durableState) JournalPush(tuples []stream.Tuple, watermark float64) {
	if !d.attached.Load() {
		return
	}
	d.append(&wal.Record{Type: wal.TypePush, Tuples: tuples, Watermark: watermark})
}

// JournalDrain implements ingest.Journal: the drain entry is the epoch
// record for queue-sourced engines — its position among the pushes fixes
// exactly which observations the closing epoch saw.
func (d *durableState) JournalDrain(t1 float64) {
	if !d.attached.Load() {
		return
	}
	d.append(&wal.Record{Type: wal.TypeEpoch, T1: t1})
}

// logSubmit/logDelete/logEpoch append control-plane records; callers hold
// stepMu, so their order against epoch records is the effect order.
func (d *durableState) logSubmit(q query.Query) {
	if !d.attached.Load() {
		return
	}
	d.append(&wal.Record{
		Type:    wal.TypeSubmit,
		QueryID: q.ID,
		Attr:    q.Attr,
		Rect:    [4]float64{q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY},
		Rate:    q.Rate,
	})
}

func (d *durableState) logDelete(id string) {
	if !d.attached.Load() {
		return
	}
	d.append(&wal.Record{Type: wal.TypeDelete, QueryID: id})
}

func (d *durableState) logEpoch(t1 float64, epoch uint64) {
	if !d.attached.Load() {
		return
	}
	d.append(&wal.Record{Type: wal.TypeEpoch, T1: t1, Epoch: epoch})
}

// commit is the ack barrier: it returns once every record appended before
// the call is durable under the configured fsync policy (and surfaces any
// sticky append failure first).
func (d *durableState) commit() error {
	if err := d.failed(); err != nil {
		return err
	}
	if !d.attached.Load() {
		return nil
	}
	return d.log.Commit()
}

// DurabilityStats is the observable durability state surfaced in the
// session JSON and /status.
type DurabilityStats struct {
	// Enabled reports whether the engine write-ahead logs its mutations.
	Enabled bool
	// Fsync is the policy name ("batch", "always", "never").
	Fsync string
	// SnapshotEvery is the checkpoint cadence in epochs.
	SnapshotEvery int
	// LastSnapshotEpoch is the epoch count of the newest checkpoint written
	// or adopted (0 = none yet).
	LastSnapshotEpoch int
	// WALBytes/WALSegments/WALRecords size the log.
	WALBytes    int64
	WALSegments int
	WALRecords  uint64
	// Recovered reports that construction found and replayed prior state.
	Recovered bool
	// ReplayedRecords is how many WAL records recovery replayed.
	ReplayedRecords int
	// TornTail reports that recovery truncated a torn or corrupt tail.
	TornTail bool
	// SnapshotVerified reports that replay reached a checkpoint's log
	// position and the re-derived state matched it.
	SnapshotVerified bool
}

// DurabilityDir returns the engine's durability directory ("" for
// non-durable engines). Manager.Destroy uses it to purge a destroyed
// session's on-disk state so the name is reusable for a fresh session.
func (e *Engine) DurabilityDir() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.cfg.Dir
}

// Durability reports the engine's durability state; Enabled is false for
// non-durable engines.
func (e *Engine) Durability() DurabilityStats {
	d := e.dur
	if d == nil {
		return DurabilityStats{}
	}
	ls := d.log.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	return DurabilityStats{
		Enabled:           true,
		Fsync:             d.cfg.Fsync.String(),
		SnapshotEvery:     d.cfg.SnapshotEveryEpochs,
		LastSnapshotEpoch: d.lastSnapshotEpoch,
		WALBytes:          ls.Bytes,
		WALSegments:       ls.Segments,
		WALRecords:        ls.Records,
		Recovered:         d.recovered,
		ReplayedRecords:   d.replayedRecords,
		TornTail:          d.report.Torn,
		SnapshotVerified:  d.snapshotVerified,
	}
}

// snapshotVersion is bumped on any incompatible change to the snapshot
// schema or to what a replay reproduces; older snapshots are ignored (the
// WAL alone still recovers). Version 2: the F-operator's window-centred fit
// agrees with version 1's only to rounding, so replaying a log written
// beside version-1 checkpoints fabricates result totals they do not record.
// Version 3: stats.RNG draws from a PCG-DXSM generator instead of math/rand's
// lagged-Fibonacci source, so every F and T draw — and with it every
// fabricated stream — is a different, equally valid realisation of the same
// process; a directory written by an older binary recovers from its WAL
// alone, to the new realisation.
const snapshotVersion = 3

// engineSnapshot is the on-disk checkpoint: the externally observable
// engine state at a known WAL position.
type engineSnapshot struct {
	Version    int     `json:"version"`
	Epochs     int     `json:"epochs"`
	Now        float64 `json:"now"`
	WALRecords uint64  `json:"walRecords"`
	Seed       int64   `json:"seed"`
	Fsync      string  `json:"fsync"`

	Queries  []snapshotQuery  `json:"queries"`
	Results  []snapshotResult `json:"results"`
	Ingest   snapshotIngest   `json:"ingest"`
	Theta    []snapshotTheta  `json:"theta,omitempty"`
	Budgets  []snapshotSlot   `json:"budgets,omitempty"`
	Adaptive []snapshotSlot   `json:"adaptive,omitempty"`
	NvSum    float64          `json:"nvSum"`
	NvN      int              `json:"nvN"`
}

type snapshotQuery struct {
	ID   string     `json:"id"`
	Attr string     `json:"attr"`
	Rect [4]float64 `json:"rect"` // minX, minY, maxX, maxY
	Rate float64    `json:"rate"`
}

type snapshotResult struct {
	ID       string `json:"id"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
	Retained int    `json:"retained"`
}

// snapshotIngest mirrors ingest.Stats with JSON-safe watermarks (−Inf,
// the unknown watermark, is not a JSON number — it becomes null).
type snapshotIngest struct {
	Ingested    uint64   `json:"ingested"`
	Dropped     uint64   `json:"dropped"`
	Late        uint64   `json:"late"`
	LateDropped uint64   `json:"lateDropped"`
	Rejected    uint64   `json:"rejected"`
	Watermark   *float64 `json:"watermark,omitempty"`
	ClosedTo    *float64 `json:"closedTo,omitempty"`
	Pending     int      `json:"pending"`
}

type snapshotTheta struct {
	Attr  string     `json:"attr"`
	Q     int        `json:"q"`
	R     int        `json:"r"`
	Theta [4]float64 `json:"theta"`
}

type snapshotSlot struct {
	Attr        string  `json:"attr"`
	Q           int     `json:"q"`
	R           int     `json:"r"`
	Budget      float64 `json:"budget"`
	LastNv      float64 `json:"lastNv"`
	Adjustments int     `json:"adjustments"`
	Infeasible  bool    `json:"infeasible"`
}

func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// captureSnapshot reads the engine state into a checkpoint. stepMu must be
// held: epochs, time, the query set and result totals only move under it
// (durable engines serialize Submit/Delete on stepMu too), so the capture
// is consistent with the walRecords position captured by the caller.
func (e *Engine) captureSnapshot(walRecords uint64) *engineSnapshot {
	snap := &engineSnapshot{
		Version:    snapshotVersion,
		WALRecords: walRecords,
		Seed:       e.cfg.Seed,
		Fsync:      e.dur.cfg.Fsync.String(),
	}
	e.mu.Lock()
	snap.Epochs = e.epochs
	snap.Now = e.now
	snap.NvSum = e.nvSum
	snap.NvN = e.nvN
	stores := make(map[string]*stream.ResultStore, len(e.results))
	for id, st := range e.results {
		stores[id] = st
	}
	e.mu.Unlock()

	for _, q := range e.fab.Registry().List() {
		snap.Queries = append(snap.Queries, snapshotQuery{
			ID:   q.ID,
			Attr: q.Attr,
			Rect: [4]float64{q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY},
			Rate: q.Rate,
		})
	}
	ids := make([]string, 0, len(stores))
	for id := range stores {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := stores[id]
		snap.Results = append(snap.Results, snapshotResult{
			ID: id, Total: st.Total(), Dropped: st.Dropped(), Retained: st.Len(),
		})
	}
	is := e.IngestStats()
	snap.Ingest = snapshotIngest{
		Ingested: is.Ingested, Dropped: is.Dropped, Late: is.Late,
		LateDropped: is.LateDropped, Rejected: is.Rejected,
		Watermark: finitePtr(is.Watermark), ClosedTo: finitePtr(is.ClosedTo),
		Pending: is.Pending,
	}
	e.fab.VisitPipelines(func(k topology.Key, p *topology.CellPipeline) {
		if th, ok := p.Flatten().WarmTheta(); ok {
			snap.Theta = append(snap.Theta, snapshotTheta{Attr: k.Attr, Q: k.Cell.Q, R: k.Cell.R, Theta: th})
		}
	})
	for _, s := range e.budgets.Snapshots() {
		snap.Budgets = append(snap.Budgets, snapshotSlot{
			Attr: s.Key.Attr, Q: s.Key.Cell.Q, R: s.Key.Cell.R,
			Budget: s.Budget, LastNv: s.LastNv, Adjustments: s.Adjustments, Infeasible: s.Infeasible,
		})
	}
	if e.adaptive != nil {
		for _, s := range e.adaptive.Snapshots() {
			snap.Adaptive = append(snap.Adaptive, snapshotSlot{
				Attr: s.Key.Attr, Q: s.Key.Cell.Q, R: s.Key.Cell.R,
				Budget: s.Budget, LastNv: s.LastNv, Adjustments: s.Adjustments, Infeasible: s.Infeasible,
			})
		}
	}
	return snap
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".json"
)

func snapshotPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%012d%s", snapPrefix, epoch, snapSuffix))
}

// writeSnapshot checkpoints the current engine state. stepMu must be held.
// The WAL record count is captured first and the log flushed after, so the
// snapshot never claims a log position a crash could lose; the engine
// state is read after the capture, so any concurrently appended pushes are
// beyond the claimed position and replay's verification skips them.
func (e *Engine) writeSnapshot() error {
	d := e.dur
	records := d.log.Stats().Records
	if err := d.log.Sync(); err != nil {
		d.fail(err)
		return err
	}
	snap := e.captureSnapshot(records)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	path := snapshotPath(d.cfg.Dir, snap.Epochs)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	d.mu.Lock()
	d.lastSnapshotEpoch = snap.Epochs
	d.mu.Unlock()
	e.pruneSnapshots()
	return nil
}

// pruneSnapshots removes checkpoints beyond the configured retention,
// oldest first. Best-effort: a prune failure never fails the snapshot.
func (e *Engine) pruneSnapshots() {
	d := e.dur
	paths, err := listSnapshots(d.cfg.Dir)
	if err != nil || len(paths) <= d.cfg.Retain {
		return
	}
	for _, p := range paths[:len(paths)-d.cfg.Retain] {
		os.Remove(p)
	}
}

// listSnapshots returns the snapshot paths in dir, oldest first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || len(name) <= len(snapPrefix)+len(snapSuffix) ||
			name[:len(snapPrefix)] != snapPrefix || filepath.Ext(name) != snapSuffix {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return paths, nil
}

// loadNewestSnapshot returns the newest parseable checkpoint, or nil when
// none exists. A corrupt or half-written snapshot (the atomic rename makes
// this rare) is skipped in favor of an older one — snapshots only verify,
// so losing one costs nothing but the check.
func loadNewestSnapshot(dir string) *engineSnapshot {
	paths, err := listSnapshots(dir)
	if err != nil {
		return nil
	}
	for i := len(paths) - 1; i >= 0; i-- {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			continue
		}
		var snap engineSnapshot
		if err := json.Unmarshal(data, &snap); err != nil || snap.Version != snapshotVersion {
			continue
		}
		return &snap
	}
	return nil
}

// maybeSnapshot checkpoints at the configured epoch cadence; called at the
// end of a successful Step with stepMu held.
func (e *Engine) maybeSnapshot() error {
	d := e.dur
	if d == nil || !d.attached.Load() {
		return nil
	}
	e.mu.Lock()
	epochs := e.epochs
	e.mu.Unlock()
	if epochs == 0 || epochs%d.cfg.SnapshotEveryEpochs != 0 {
		return nil
	}
	return e.writeSnapshot()
}

// initDurability opens the session's WAL, replays whatever it holds
// through the normal engine machinery, verifies the replayed state against
// the newest checkpoint, and attaches the journal so subsequent mutations
// are logged. Called at the end of New on a fully constructed engine; no
// other goroutines exist yet.
func (e *Engine) initDurability() error {
	d := e.dur
	snap := loadNewestSnapshot(d.cfg.Dir)
	var count uint64
	rep, err := d.log.Replay(func(rec *wal.Record) error {
		if err := e.applyRecord(rec); err != nil {
			return err
		}
		count++
		if snap != nil && count == snap.WALRecords {
			if err := e.verifySnapshot(snap); err != nil {
				return err
			}
			d.mu.Lock()
			d.snapshotVerified = true
			d.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		d.log.Close()
		return fmt.Errorf("server: recovery: %w", err)
	}
	d.mu.Lock()
	d.report = rep
	d.replayedRecords = rep.Records
	d.recovered = rep.Records > 0 || snap != nil
	if snap != nil {
		d.lastSnapshotEpoch = snap.Epochs
	}
	d.mu.Unlock()
	if !d.cfg.ReadOnly {
		d.attached.Store(true)
	}
	return nil
}

// applyRecord replays one WAL record through the engine's normal mutation
// paths. The journal is not yet attached, so nothing is re-logged.
func (e *Engine) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeSubmit:
		q := query.Query{
			Attr:   rec.Attr,
			Region: geom.Rect{MinX: rec.Rect[0], MinY: rec.Rect[1], MaxX: rec.Rect[2], MaxY: rec.Rect[3]},
			Rate:   rec.Rate,
		}
		stored, err := e.Submit(q)
		if err != nil {
			return fmt.Errorf("replaying submit of %s: %w", rec.QueryID, err)
		}
		if stored.ID != rec.QueryID {
			return fmt.Errorf("replaying submit: engine assigned %s where the log recorded %s (log does not match this session's history)", stored.ID, rec.QueryID)
		}
	case wal.TypeDelete:
		if err := e.Delete(rec.QueryID); err != nil {
			return fmt.Errorf("replaying delete of %s: %w", rec.QueryID, err)
		}
	case wal.TypePush:
		if e.queue == nil {
			return errors.New("replaying push: log holds observations but the session source is simulated")
		}
		if _, err := e.queue.Push(rec.Tuples, rec.Watermark); err != nil {
			return fmt.Errorf("replaying push: %w", err)
		}
	case wal.TypeEpoch:
		if err := e.Step(); err != nil {
			return fmt.Errorf("replaying epoch at t1=%g: %w", rec.T1, err)
		}
		if now := e.Now(); now != rec.T1 {
			return fmt.Errorf("replaying epoch: engine advanced to t=%g where the log recorded %g", now, rec.T1)
		}
		if rec.Epoch != 0 {
			if got := uint64(e.Epochs()); got != rec.Epoch {
				return fmt.Errorf("replaying epoch: engine at epoch %d where the log recorded %d", got, rec.Epoch)
			}
		}
	default:
		return fmt.Errorf("unknown WAL record type %v", rec.Type)
	}
	return nil
}

// verifySnapshot checks the replayed state against a checkpoint taken at
// exactly this log position. Only stepMu-stable state is compared — epochs,
// time, the query set and result totals; ingest counters may legitimately
// run ahead of the checkpoint's log position (pushes append concurrently
// with the state capture) and are recorded for inspection, not verified.
func (e *Engine) verifySnapshot(snap *engineSnapshot) error {
	if got := e.Epochs(); got != snap.Epochs {
		return fmt.Errorf("snapshot check at record %d: epochs %d, snapshot says %d", snap.WALRecords, got, snap.Epochs)
	}
	if got := e.Now(); got != snap.Now {
		return fmt.Errorf("snapshot check at record %d: now %g, snapshot says %g", snap.WALRecords, got, snap.Now)
	}
	live := e.fab.Registry().List()
	if len(live) != len(snap.Queries) {
		return fmt.Errorf("snapshot check at record %d: %d live queries, snapshot says %d", snap.WALRecords, len(live), len(snap.Queries))
	}
	byID := make(map[string]query.Query, len(live))
	for _, q := range live {
		byID[q.ID] = q
	}
	for _, sq := range snap.Queries {
		q, ok := byID[sq.ID]
		if !ok {
			return fmt.Errorf("snapshot check at record %d: query %s missing after replay", snap.WALRecords, sq.ID)
		}
		if q.Attr != sq.Attr || q.Rate != sq.Rate ||
			q.Region != (geom.Rect{MinX: sq.Rect[0], MinY: sq.Rect[1], MaxX: sq.Rect[2], MaxY: sq.Rect[3]}) {
			return fmt.Errorf("snapshot check at record %d: query %s differs from snapshot", snap.WALRecords, sq.ID)
		}
	}
	for _, sr := range snap.Results {
		st, err := e.ResultStore(sr.ID)
		if err != nil {
			return fmt.Errorf("snapshot check at record %d: %w", snap.WALRecords, err)
		}
		if st.Total() != sr.Total || st.Dropped() != sr.Dropped {
			return fmt.Errorf("snapshot check at record %d: query %s delivered %d/%d tuples (total/dropped), snapshot says %d/%d",
				snap.WALRecords, sr.ID, st.Total(), st.Dropped(), sr.Total, sr.Dropped)
		}
	}
	return nil
}

// finalizeDurability writes a last checkpoint and closes the WAL; called
// from Shutdown with stepMu held, after the queue is closed. Committers
// whose records the final flush covered still succeed (the graceful-
// shutdown ack guarantee); later appends fail with wal.ErrClosed.
func (e *Engine) finalizeDurability() error {
	d := e.dur
	if d == nil {
		return nil
	}
	var errs []error
	if d.attached.Load() {
		if err := e.writeSnapshot(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := d.log.Close(); err != nil {
		errs = append(errs, err)
	}
	d.attached.Store(false)
	return errors.Join(errs...)
}
