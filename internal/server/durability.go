// Durability: the engine-side write-ahead log and snapshot layer behind
// crash-recoverable sessions (see DESIGN.md, "Durability and recovery").
//
// The engine's state is a deterministic function of its Config plus the
// ordered sequence of externally driven mutations: query submits/deletes,
// raw observation pushes, and epoch closes. Durable engines append exactly
// that sequence to an internal/wal log, and every SnapshotEveryEpochs epochs
// (or once the log has filled a whole segment since the last snapshot)
// write a snapshot: the engine's full state at an exact log position, in a
// binary, CRC-checked file (snapshot.go). A snapshot is a restore point.
// Recovery loads the older of the two newest snapshots, replays the log
// suffix after it through the normal Submit / Push / Step machinery, and on
// reaching the newer snapshot's position re-encodes the engine and requires
// the bytes to equal that file — silent non-determinism anywhere in the
// state is a loud recovery error. Replay therefore covers at most about two
// snapshot intervals, and once a snapshot is durable the WAL segments wholly
// behind the older kept one are deleted, which bounds a session's disk use.
// A directory with no usable snapshot replays its log from the beginning
// with the same loop; one whose early segments are already gone fails
// instead of guessing.
package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wal"
)

// DefaultSnapshotEvery is the snapshot cadence in epochs when
// DurabilityConfig.SnapshotEveryEpochs is zero.
const DefaultSnapshotEvery = 16

// DurabilityConfig enables crash-recoverable sessions: when Dir is
// non-empty the engine write-ahead logs every state mutation there and, on
// construction, recovers whatever the directory already holds.
type DurabilityConfig struct {
	// Dir is the session's durability directory (holds the wal/ segment
	// subdirectory and the snap-N snapshots). Empty disables durability.
	Dir string
	// Fsync selects when appended records become durable (default
	// wal.FsyncBatch: ingest acks group-commit on one fsync). Under
	// wal.FsyncNever no snapshot, manifest or directory is fsynced either.
	Fsync wal.Policy
	// SnapshotEveryEpochs writes a snapshot every N completed epochs
	// (0 = DefaultSnapshotEvery); recovery replays about two intervals.
	SnapshotEveryEpochs int
	// ReadOnly recovers from the directory without appending, truncating,
	// snapshotting or deleting anything — the offline craqr-replay tool's
	// mode.
	ReadOnly bool
	// SegmentBytes overrides the WAL segment rotation threshold (tests).
	SegmentBytes int64
	// FS is the filesystem the WAL, snapshots and manifest go through
	// (nil = wal.OS); tests interpose on it to record or fault operations.
	FS wal.FS
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotEveryEpochs <= 0 {
		c.SnapshotEveryEpochs = DefaultSnapshotEvery
	}
	if c.FS == nil {
		c.FS = wal.OS
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

	mu               sync.Mutex
	err              error // sticky append failure: no further acks may succeed
	recovered        bool
	replayedRecords  int
	report           wal.ReplayReport
	snapshotVerified bool
	// kept lists the snapshots on disk that recovery may use, oldest first
	// (at most keptSnapshots); WAL segments before kept[0] are deletable once
	// both are written.
	kept []keptSnapshot
	// lastPos is the newest snapshot's log position (or where recovery
	// ended, before the first): a log that has filled a whole segment since
	// triggers the next snapshot.
	lastPos wal.Position
}

// keptSnapshot is a snapshot the session keeps: its epoch count (the file
// name) and its log position.
type keptSnapshot struct {
	epochs int
	pos    wal.Position
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

// writeFile writes a file of the session directory — a snapshot or the
// manifest — through a temporary: write, fsync, rename, fsync the directory
// (no fsyncs under wal.FsyncNever). A crash at any point leaves either the
// previous file or the new one whole under path; at worst a torn temporary
// remains.
func (d *durableState) writeFile(path string, write func(io.Writer) error) error {
	fsys, sync, tmp := d.cfg.FS, d.cfg.Fsync != wal.FsyncNever, path+".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err == nil && sync {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	return err
}

// append logs rec once the journal is attached; a failure is sticky. The
// engine appends submits, deletes and simulated epochs under stepMu, so
// their order against epoch records is the effect order.
func (d *durableState) append(rec *wal.Record) {
	if !d.attached.Load() {
		return
	}
	if err := d.log.Append(rec); err != nil {
		d.fail(err)
	}
}

// JournalPush implements ingest.Journal (called under the queue's lock).
func (d *durableState) JournalPush(tuples []stream.Tuple, watermark float64) {
	d.append(&wal.Record{Type: wal.TypePush, Tuples: tuples, Watermark: watermark})
}

// JournalDrain implements ingest.Journal: the drain entry is the epoch
// record for queue-sourced engines — its position among the pushes fixes
// exactly which observations the closing epoch saw.
func (d *durableState) JournalDrain(t1 float64) {
	d.append(&wal.Record{Type: wal.TypeEpoch, T1: t1})
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

// Durability reports the engine's durability state, as the session JSON
// and /status show it; nil for non-durable engines.
func (e *Engine) Durability() *client.Durability {
	d := e.dur
	if d == nil {
		return nil
	}
	ls := d.log.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	last := 0
	if len(d.kept) > 0 {
		last = d.kept[len(d.kept)-1].epochs
	}
	return &client.Durability{
		Fsync:             d.cfg.Fsync.String(),
		SnapshotEvery:     d.cfg.SnapshotEveryEpochs,
		LastSnapshotEpoch: last,
		WALBytes:          ls.Bytes,
		WALSegments:       ls.Segments,
		WALRecords:        ls.Records,
		Recovered:         d.recovered,
		ReplayedRecords:   d.replayedRecords,
		TornTail:          d.report.Torn,
		SnapshotVerified:  d.snapshotVerified,
	}
}

// writeSnapshot makes the engine's current state a restore point; stepMu
// must be held. Pushes may run concurrently: under the ingest queue's lock —
// pushes journal under it — the log position is read and the queue copied,
// so the snapshot sits exactly between two records. Everything else only
// moves under stepMu. The log is made durable through that position before
// the file is written, so a snapshot never claims records a crash could
// lose, and segments are deleted only once the file is durable.
func (e *Engine) writeSnapshot() error {
	d := e.dur
	var pos wal.Position
	qs := e.captureQueue(func() { pos = d.log.Position() })
	if d.cfg.Fsync != wal.FsyncNever {
		// A commit, not a forced fsync: the log is usually durable already
		// (the step has just committed), and records appended since join
		// the pushes' own group commit.
		if err := d.log.Commit(); err != nil {
			d.fail(err)
			return err
		}
	}
	epochs := e.Epochs()
	err := d.writeFile(snapshotPath(d.cfg.Dir, epochs), func(w io.Writer) error {
		return e.encodeState(codec.NewWriter(w), pos, qs)
	})
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	d.mu.Lock()
	if n := len(d.kept); n > 0 && d.kept[n-1].epochs == epochs {
		d.kept[n-1].pos = pos // the same file, rewritten further along the log
	} else {
		d.kept = append(d.kept, keptSnapshot{epochs: epochs, pos: pos})
	}
	if n := len(d.kept); n > keptSnapshots {
		d.kept = append(d.kept[:0], d.kept[n-keptSnapshots:]...)
	}
	d.lastPos = pos
	kept := append([]keptSnapshot(nil), d.kept...)
	d.mu.Unlock()
	e.compact(kept)
	return nil
}

// compact deletes what the kept snapshots make unnecessary: every other
// snapshot-named file (older snapshots, torn temporaries, checkpoints of
// earlier versions), and — once keptSnapshots are on disk — every WAL
// segment wholly before the older one's position. Best-effort: a failure
// leaves extra files, never a missing one, and the next snapshot retries.
func (e *Engine) compact(kept []keptSnapshot) {
	d := e.dur
	keep := make(map[string]bool, len(kept))
	for _, k := range kept {
		keep[filepath.Base(snapshotPath(d.cfg.Dir, k.epochs))] = true
	}
	if entries, err := d.cfg.FS.ReadDir(d.cfg.Dir); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if len(name) > len(snapPrefix) && name[:len(snapPrefix)] == snapPrefix && !keep[name] {
				d.cfg.FS.Remove(filepath.Join(d.cfg.Dir, name))
			}
		}
	}
	if len(kept) == keptSnapshots {
		_, _ = d.log.DeleteBefore(kept[0].pos.Segment)
	}
}

// maybeSnapshot snapshots at the configured epoch cadence, and also whenever
// the log has filled a whole segment since the last snapshot, so replay
// stays bounded in bytes as well as epochs; called at the end of a
// successful Step with stepMu held. A session whose log failed writes none:
// its state may hold a mutation the log does not.
func (e *Engine) maybeSnapshot() error {
	d := e.dur
	if !d.attached.Load() || d.failed() != nil {
		return nil
	}
	d.mu.Lock()
	lastSeg := d.lastPos.Segment
	d.mu.Unlock()
	if e.Epochs()%d.cfg.SnapshotEveryEpochs != 0 && d.log.Position().Segment <= lastSeg+1 {
		return nil
	}
	return e.writeSnapshot()
}

// initDurability recovers whatever the session's directory holds and
// attaches the journal, so subsequent mutations are logged. Called at the
// end of New on a fully constructed engine; no other goroutines exist yet.
//
// Of the snapshots whose checksum passes and whose position the log still
// reaches, the newest is the one to verify against and the one before it
// (or, alone, the newest itself) the one to restore. Replay then runs from
// the restored position — or, with no snapshot at all, from the log's start,
// which only an uncompacted log can offer. A newer snapshot that claims
// records the log no longer holds (a torn log) is deleted once an older one
// has recovered the session, unless ReadOnly: it would misdescribe the
// records appended next.
func (e *Engine) initDurability() error {
	d := e.dur
	fail := func(err error) error {
		d.log.Close()
		return fmt.Errorf("server: recovery: %w", err)
	}
	snaps, err := readSnapshots(d.cfg.FS, d.cfg.Dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fail(err)
	}
	var usable, stale []*snapshotFile
	for _, s := range snaps {
		switch {
		case !d.log.Reaches(s.pos):
			if len(usable) == 0 {
				stale = append(stale, s)
			}
		case len(usable) < keptSnapshots:
			usable = append(usable, s)
		}
	}
	var from, newest *snapshotFile
	if len(usable) > 0 {
		newest, from = usable[0], usable[len(usable)-1]
	}
	var start wal.Position
	switch {
	case from != nil:
		if err := e.restoreState(from.data); err != nil {
			return fail(fmt.Errorf("restoring %s: %w", filepath.Base(from.path), err))
		}
		start = from.pos
	case len(stale) > 0:
		return fail(fmt.Errorf("%s describes records the log does not hold, and no older snapshot is usable; the directory is left as it is", filepath.Base(stale[0].path)))
	case d.log.Compacted():
		return fail(errors.New("no usable snapshot, and the log's first segments were deleted behind the ones that are gone; the directory is left as it is"))
	}
	verified := false
	rep, err := d.log.ReplayFrom(start, func(rec *wal.Record) error {
		if err := e.applyRecord(rec); err != nil {
			return err
		}
		start.Records++
		if newest != from && start.Records == newest.pos.Records {
			if off, ok := e.matchState(newest.pos, newest.data); !ok {
				return fmt.Errorf("state replayed to record %d differs from %s from byte %d", start.Records, filepath.Base(newest.path), off)
			}
			verified = true
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	var kept []keptSnapshot
	if from != nil {
		kept = append(kept, keptSnapshot{epochs: from.epochs, pos: from.pos})
	}
	if verified {
		kept = append(kept, keptSnapshot{epochs: newest.epochs, pos: newest.pos})
	} else if newest != from {
		stale = append(stale, newest) // the log ended (torn) before its position
	}
	if !d.cfg.ReadOnly {
		for _, s := range stale {
			d.cfg.FS.Remove(s.path)
		}
	}
	d.mu.Lock()
	d.report = rep
	d.replayedRecords = rep.Records
	d.recovered = rep.Records > 0 || from != nil
	d.snapshotVerified = verified
	d.kept = kept
	d.lastPos = d.log.Position()
	if len(kept) > 0 {
		d.lastPos = kept[len(kept)-1].pos
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

// finalizeDurability writes a last snapshot — a restart then replays
// little or nothing — and closes the WAL; called from Shutdown with stepMu
// held, after the queue is closed. Committers whose records the final flush
// covered still succeed (the graceful-shutdown ack guarantee); later appends
// fail with wal.ErrClosed.
func (e *Engine) finalizeDurability() error {
	d := e.dur
	if d == nil {
		return nil
	}
	var errs []error
	if d.attached.Load() && d.failed() == nil {
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
