package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stream"
	"repro/internal/wal"
)

// --- op scripts: the deterministic workloads the crash tests replay -------

// durOp is one externally driven engine mutation; a script of them is the
// workload both the uninterrupted control run and the crash runs execute.
type durOp struct {
	kind      string // "submit", "delete", "push", "step"
	q         query.Query
	id        string
	tuples    []stream.Tuple
	watermark float64
}

func applyOp(t *testing.T, e *Engine, op durOp) {
	t.Helper()
	if err := doOp(e, op); err != nil {
		t.Fatal(err)
	}
}

func doOp(e *Engine, op durOp) error {
	var err error
	switch op.kind {
	case "submit":
		_, err = e.Submit(op.q)
	case "delete":
		err = e.Delete(op.id)
	case "push":
		_, err = e.PushObservations(op.tuples, op.watermark)
	case "step":
		err = e.Step()
	default:
		return fmt.Errorf("unknown op %q", op.kind)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.kind, op.id, err)
	}
	return nil
}

// pushOp fabricates a deterministic observation batch around epoch t.
func pushOp(t float64, n int, attr string, watermark float64) durOp {
	tuples := make([]stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		f := float64(i)
		tuples = append(tuples, stream.Tuple{
			// Even tuples carry producer IDs; odd ones exercise the
			// gateway-assigned sequence, which replay must reproduce.
			ID:    uint64(i%2) * (1000*uint64(t+1) + uint64(i)),
			Attr:  attr,
			T:     t + math.Mod(f*0.37, 1.0),
			X:     math.Mod(f*1.7, 8),
			Y:     math.Mod(f*2.3, 8),
			Value: f * 0.5,
		})
	}
	// One invalid tuple per batch keeps the rejected counter moving.
	tuples = append(tuples, stream.Tuple{Attr: attr, T: t, X: -99, Y: 0, Value: 1})
	return durOp{kind: "push", tuples: tuples, watermark: watermark}
}

// crashScript is the standard external-source workload: submits, pushed
// epochs with gateway IDs and rejects, a delete, and enough steps to close
// several epochs.
func crashScript() []durOp {
	rect := geom.NewRect(0, 0, 8, 8)
	half := geom.NewRect(0, 0, 4, 4)
	ops := []durOp{
		{kind: "submit", q: query.Query{Attr: "rain", Region: rect, Rate: 6}},
		{kind: "submit", q: query.Query{Attr: "rain", Region: half, Rate: 3}},
		pushOp(0, 40, "rain", math.NaN()),
		pushOp(0, 25, "rain", 1),
		{kind: "step"},
		{kind: "submit", q: query.Query{Attr: "temp", Region: half, Rate: 4}},
		pushOp(1, 30, "rain", math.NaN()),
		pushOp(1, 30, "temp", 2),
		{kind: "step"},
		{kind: "delete", id: "Q2"},
		pushOp(2, 35, "rain", math.NaN()),
		pushOp(2, 20, "temp", 3),
		{kind: "step"},
		pushOp(3, 15, "rain", 4),
	}
	return ops
}

func externalConfig(dir string, fsync wal.Policy) Config {
	cfg := testConfig()
	cfg.Source = SourceConfig{Mode: SourceExternal}
	if dir != "" {
		cfg.Durability = DurabilityConfig{Dir: dir, Fsync: fsync}
	}
	return cfg
}

// engineState captures everything the crash tests compare: epochs, time,
// live queries, ingest accounting and — the heart of the guarantee — every
// query's full result stream.
type engineState struct {
	Epochs  int
	Now     float64
	Queries []query.Query
	Ingest  struct {
		Ingested, Dropped, Late, LateDropped, Rejected uint64
	}
	Results map[string][]stream.Tuple
	Totals  map[string][2]uint64 // total, dropped per store
}

func captureState(t *testing.T, e *Engine) engineState {
	t.Helper()
	st := engineState{
		Epochs:  e.Epochs(),
		Now:     e.Now(),
		Queries: e.Queries(),
		Results: map[string][]stream.Tuple{},
		Totals:  map[string][2]uint64{},
	}
	is := e.IngestStats()
	st.Ingest.Ingested, st.Ingest.Dropped, st.Ingest.Late = is.Ingested, is.Dropped, is.Late
	st.Ingest.LateDropped, st.Ingest.Rejected = is.LateDropped, is.Rejected
	for _, q := range st.Queries {
		out, _, dropped, err := readResults(e, q.ID, 0, -1)
		if err != nil {
			t.Fatalf("reading %s: %v", q.ID, err)
		}
		store, err := e.ResultStore(q.ID)
		if err != nil {
			t.Fatal(err)
		}
		st.Results[q.ID] = out
		st.Totals[q.ID] = [2]uint64{store.Total(), dropped}
	}
	return st
}

func requireSameState(t *testing.T, want, got engineState, label string) {
	t.Helper()
	if want.Epochs != got.Epochs || want.Now != got.Now {
		t.Fatalf("%s: epochs/now = %d/%g, want %d/%g", label, got.Epochs, got.Now, want.Epochs, want.Now)
	}
	if !reflect.DeepEqual(want.Queries, got.Queries) {
		t.Fatalf("%s: queries diverged:\n got %+v\nwant %+v", label, got.Queries, want.Queries)
	}
	if want.Ingest != got.Ingest {
		t.Fatalf("%s: ingest accounting diverged: got %+v want %+v", label, got.Ingest, want.Ingest)
	}
	if !reflect.DeepEqual(want.Totals, got.Totals) {
		t.Fatalf("%s: result totals diverged: got %v want %v", label, got.Totals, want.Totals)
	}
	for id, wantTuples := range want.Results {
		if !reflect.DeepEqual(wantTuples, got.Results[id]) {
			t.Fatalf("%s: result stream of %s not byte-identical (%d vs %d tuples)",
				label, id, len(got.Results[id]), len(wantTuples))
		}
	}
}

// --- crash-recovery: byte-identical resumed streams -----------------------

// crashCase is one source mode's workload for the crash oracle: a script
// spanning several snapshot intervals, then a tail of five more epochs.
type crashCase struct {
	name      string
	cfg       func(dir string) Config
	ops, tail []durOp
}

// crashCases cover the three source modes with snapshots every two epochs,
// adaptive rates on and result rings small enough to wrap. Each script shares a subplan, deletes the query
// that created it while another keeps it alive, and — where there is a
// queue — pushes the next epoch's tuples early and redelivers IDs, so drains
// are partial and the duplicate window is indexed when a snapshot is taken.
func crashCases() []crashCase {
	full, half, mid := geom.NewRect(0, 0, 8, 8), geom.NewRect(0, 0, 4, 4), geom.NewRect(2, 2, 6, 6)
	submit := func(attr string, r geom.Rect, rate float64) durOp {
		return durOp{kind: "submit", q: query.Query{Attr: attr, Region: r, Rate: rate}}
	}
	del := func(id string) durOp { return durOp{kind: "delete", id: id} }
	step := durOp{kind: "step"}
	nan := math.NaN()
	config := func(mode SourceMode) func(string) Config {
		return func(dir string) Config {
			cfg := testConfig()
			cfg.AdaptiveRates = true
			cfg.Retention = 48 // rings wrap, so snapshots hold them in two runs
			cfg.Source = SourceConfig{Mode: mode}
			if dir != "" {
				cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.FsyncAlways, SnapshotEveryEpochs: 2}
			}
			return cfg
		}
	}
	pushTail := func(from, n int) []durOp {
		var ops []durOp
		for e := from; e < from+n; e++ {
			ops = append(ops, pushOp(float64(e), 25, "rain", float64(e+1)), step)
		}
		return ops
	}
	var stepTail []durOp
	for i := 0; i < 5; i++ {
		stepTail = append(stepTail, step)
	}
	return []crashCase{
		{
			name: "external",
			cfg:  config(SourceExternal),
			ops: []durOp{
				submit("rain", full, 6), submit("rain", half, 3), submit("rain", full, 6),
				pushOp(0, 40, "rain", nan), pushOp(1, 20, "rain", 1), step,
				submit("temp", half, 4), pushOp(1, 30, "rain", nan), pushOp(2, 25, "temp", 2), step,
				del("Q1"), pushOp(2, 35, "rain", nan), pushOp(3, 20, "rain", 3), step,
				pushOp(3, 15, "temp", 4), step,
				submit("rain", full, 6), del("Q2"), pushOp(4, 30, "rain", 5), step,
				pushOp(5, 30, "rain", 6), step,
				pushOp(6, 20, "temp", 7), step,
				pushOp(7, 20, "rain", 8), step,
				pushOp(8, 10, "rain", nan),
			},
			tail: pushTail(8, 5),
		},
		{
			name: "simulated",
			cfg:  config(SourceSimulated),
			ops: []durOp{
				submit("rain", full, 5), submit("temp", mid, 4), submit("rain", full, 5), step, step,
				submit("rain", half, 3), step, del("Q1"), step, step,
				del("Q2"), submit("temp", full, 2), step, step, step,
			},
			tail: stepTail,
		},
		{
			name: "mixed",
			cfg:  config(SourceMixed),
			ops: []durOp{
				submit("rain", full, 5), submit("temp", half, 4), submit("rain", full, 5), step,
				pushOp(1, 20, "rain", nan), pushOp(2, 10, "rain", 2), step,
				del("Q1"), pushOp(2, 20, "temp", 3), step,
				pushOp(3, 15, "rain", 4), step,
				submit("rain", half, 3), pushOp(4, 10, "rain", 5), step,
				pushOp(5, 10, "temp", 6), step,
			},
			tail: pushTail(6, 5),
		},
	}
}

// stateBytes encodes the engine's whole state as a snapshot would (at a
// fixed log position), so two engines can be compared byte for byte.
func stateBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	var buf bytes.Buffer
	if err := e.encodeState(codec.NewWriter(&buf), wal.Position{}, e.captureQueue(func() {})); err != nil {
		t.Fatalf("encoding state: %v", err)
	}
	return buf.Bytes()
}

func requireSameBytes(t *testing.T, want, got []byte, label string) {
	t.Helper()
	if !bytes.Equal(want, got) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		t.Fatalf("%s: state differs from the control's at byte %d of %d", label, i, len(want))
	}
}

// TestCrashRecoveryByteIdentical kills a durable engine at every op
// boundary of each source mode's workload (an abandoned engine is exactly a
// SIGKILL: no shutdown, no final flush — fsync=always makes every acked op
// durable) and recovers from the directory. The recovered engine's whole
// state must encode byte-identical to an uninterrupted non-durable control
// at the same op; it then finishes the workload and five more epochs and
// must still equal the control, every query's full result stream included.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	for _, c := range crashCases() {
		t.Run(c.name, func(t *testing.T) {
			control, err := New(c.cfg(""), testFields(t))
			if err != nil {
				t.Fatal(err)
			}
			var at [][]byte
			for _, op := range c.ops {
				at = append(at, stateBytes(t, control))
				applyOp(t, control, op)
			}
			at = append(at, stateBytes(t, control))
			for _, op := range c.tail {
				applyOp(t, control, op)
			}
			final, want := stateBytes(t, control), captureState(t, control)

			for k := 0; k <= len(c.ops); k++ {
				label := fmt.Sprintf("crash@%d", k)
				dir := t.TempDir()
				e1, err := New(c.cfg(dir), testFields(t))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, op := range c.ops[:k] {
					applyOp(t, e1, op)
				}
				e2, err := New(c.cfg(dir), testFields(t))
				if err != nil {
					t.Fatalf("%s: recovery: %v", label, err)
				}
				if k > 0 && !e2.Durability().Recovered {
					t.Fatalf("%s: recovery not reported", label)
				}
				requireSameBytes(t, at[k], stateBytes(t, e2), label+" recovered")
				for _, op := range append(c.ops[k:len(c.ops):len(c.ops)], c.tail...) {
					applyOp(t, e2, op)
				}
				requireSameBytes(t, final, stateBytes(t, e2), label+" finished")
				requireSameState(t, want, captureState(t, e2), label)
				if err := e2.Shutdown(); err != nil {
					t.Fatalf("%s: shutdown: %v", label, err)
				}
			}
		})
	}
}

// TestSimulatedRecoveryDeterministic crashes a purely simulated durable
// engine mid-run; recovery must replay the fleet epochs through the same
// RNG stream, so continuing after the crash matches the control exactly.
func TestSimulatedRecoveryDeterministic(t *testing.T) {
	submit := func(e *Engine) {
		if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(query.Query{Attr: "temp", Region: geom.NewRect(2, 2, 6, 6), Rate: 4}); err != nil {
			t.Fatal(err)
		}
	}
	control, err := New(testConfig(), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	submit(control)
	if err := control.Run(7); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, control)

	dir := t.TempDir()
	cfg := testConfig()
	cfg.Durability = DurabilityConfig{Dir: dir, Fsync: wal.FsyncAlways, SnapshotEveryEpochs: 2}
	e1, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	submit(e1)
	if err := e1.Run(4); err != nil {
		t.Fatal(err)
	}
	// Crash after 4 epochs; recover and finish the remaining 3.
	e2, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	ds := e2.Durability()
	if !ds.Recovered || ds.ReplayedRecords == 0 {
		t.Fatalf("expected recovery, got %+v", ds)
	}
	if !ds.SnapshotVerified {
		t.Fatalf("replay should have verified the epoch-4 checkpoint: %+v", ds)
	}
	if err := e2.Run(3); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, want, captureState(t, e2), "simulated")
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// --- torn writes and corruption -------------------------------------------

// tornSegment persists at most budget bytes, then silently swallows the
// rest while reporting success — the page cache of a machine that lost
// power mid-write.
type tornSegment struct {
	wal.File
	budget *int
}

func (s tornSegment) Write(p []byte) (int, error) {
	if *s.budget <= 0 {
		return len(p), nil
	}
	n := len(p)
	if n > *s.budget {
		n = *s.budget
	}
	if _, err := s.File.Write(p[:n]); err != nil {
		return 0, err
	}
	*s.budget -= n
	return len(p), nil
}

func (s tornSegment) Sync() error { return nil } // lies, like lost power

// TestTornWriteRecovery crashes mid-WAL-append: the torn final record is
// truncated on recovery (not an error) and the engine resumes from the
// last complete record, matching a control run of the surviving prefix.
func TestTornWriteRecovery(t *testing.T) {
	// Pure pushes: exactly one WAL record per op, so the surviving record
	// count maps 1:1 onto a control prefix.
	var ops []durOp
	for i := 0; i < 6; i++ {
		ops = append(ops, pushOp(float64(i), 10+i, "rain", math.NaN()))
	}
	dir := t.TempDir()
	budget := 700 // cut mid-record partway through the workload
	cfg := externalConfig(dir, wal.FsyncAlways)
	cfg.Durability.FS = segmentFS{FS: wal.OS, wrap: func(f wal.File) wal.File {
		return tornSegment{File: f, budget: &budget}
	}}
	e1, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, e1, op)
	}
	// Crash; recover without the fault injector.
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	ds := e2.Durability()
	if !ds.TornTail {
		t.Fatalf("expected a torn tail, got %+v", ds)
	}
	if ds.ReplayedRecords >= len(ops)+1 {
		t.Fatalf("torn log should have lost records, replayed %d", ds.ReplayedRecords)
	}
	// The recovered engine must equal a control run of the surviving
	// prefix: the submit plus the first replayed-1 pushes.
	control, err := New(externalConfig("", 0), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:ds.ReplayedRecords-1] {
		applyOp(t, control, op)
	}
	requireSameState(t, captureState(t, control), captureState(t, e2), "torn")
	// The log is usable again: appending continues from the truncation.
	applyOp(t, e2, pushOp(9, 5, "rain", 10))
	applyOp(t, e2, durOp{kind: "step"})
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFromPreallocatedTail abandons a durable engine — a kill —
// right after its WAL rotated onto a zero-filled spare, so the last segment
// is longer than its records. Recovery must read the zeros as the clean end
// of the log, not a torn tail, and resume byte-identical to an
// uninterrupted control. After Shutdown nothing is left filling the
// directory: it holds only segments trimmed to their records, and a second
// engine opens it cleanly.
func TestRecoveryFromPreallocatedTail(t *testing.T) {
	cfg := func(dir string) Config {
		c := externalConfig(dir, wal.FsyncBatch)
		c.Durability.SegmentBytes = 64 << 10
		return c
	}
	epoch := func(e int) []durOp {
		return []durOp{pushOp(float64(e), 40, "rain", float64(e+1)), {kind: "step"}}
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	segBytes := func() (n int64) {
		paths, _ := filepath.Glob(filepath.Join(walDir, "*.seg"))
		for _, p := range paths {
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
		return n
	}
	e1, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	ops := []durOp{{kind: "submit", q: query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 6}}}
	applyOp(t, e1, ops[0])
	// Stop on the first epoch that leaves the last segment preallocated:
	// it has just been renamed from the spare, so no fill is running when
	// e1 is abandoned.
	next := 0
	for ; segBytes() == e1.Durability().WALBytes; next++ {
		if next == 200 {
			t.Fatal("the log never rotated onto a spare")
		}
		for _, op := range epoch(next) {
			applyOp(t, e1, op)
			ops = append(ops, op)
		}
	}

	e2, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if ds := e2.Durability(); !ds.Recovered || ds.TornTail {
		t.Fatalf("recovery from a preallocated tail: %+v", ds)
	}
	control, err := New(cfg(""), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, control, op)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e2), "recovered")
	// Long enough for e2 to fill and rotate onto a spare of its own.
	for end := next + 40; next < end; next++ {
		for _, op := range epoch(next) {
			applyOp(t, control, op)
			applyOp(t, e2, op)
		}
	}
	requireSameState(t, captureState(t, control), captureState(t, e2), "resumed")
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".seg" {
			t.Fatalf("Shutdown left %s in the log directory", ent.Name())
		}
	}
	if on, framed := segBytes(), e2.Durability().WALBytes; on != framed {
		t.Fatalf("after Shutdown the segments hold %d bytes for %d framed", on, framed)
	}
	e3, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatalf("reopening after Shutdown: %v", err)
	}
	defer e3.Shutdown()
	if ds := e3.Durability(); !ds.Recovered || ds.TornTail {
		t.Fatalf("reopening after Shutdown: %+v", ds)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e3), "reopened")
}

// TestCorruptRecordTruncates flips a byte inside a committed WAL record that
// recovery must read (the session crashed before its first snapshot):
// recovery must truncate at the bad CRC and resume from the prefix — never
// panic, never fail construction.
func TestCorruptRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		applyOp(t, e1, pushOp(float64(i), 12, "rain", float64(i+1)))
		applyOp(t, e1, durOp{kind: "step"})
	}
	// Crash: no final snapshot, so the log is the only source.
	seg := filepath.Join(dir, "wal", "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery after corruption: %v", err)
	}
	ds := e2.Durability()
	if !ds.TornTail {
		t.Fatalf("expected corruption to report a torn tail: %+v", ds)
	}
	if ds.SnapshotVerified {
		t.Fatalf("a session without snapshots verified one: %+v", ds)
	}
	if got, max := e2.Epochs(), e1.Epochs(); got > max {
		t.Fatalf("recovered %d epochs from a truncated log of %d", got, max)
	}
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageSnapshotIgnored: a torn or unparseable file under a snapshot's
// name, a half-written temporary and a checkpoint of an earlier version are
// all passed over, and the newest intact snapshot recovers the session.
func TestGarbageSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	applyOp(t, e1, pushOp(0, 10, "rain", 1))
	applyOp(t, e1, durOp{kind: "step"})
	if err := e1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves a .tmp; a corrupt "newest" snapshot must
	// also be skipped in favor of replay.
	if err := os.WriteFile(filepath.Join(dir, "snap-999999999999.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-000000000007.json.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-999999999999"), []byte("CRAQSNAP torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery with garbage snapshots: %v", err)
	}
	if e2.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", e2.Epochs())
	}
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestOlderSnapshotVersionSkipped: checkpoints of earlier versions — the
// JSON snap-N.json files versions 1–3 wrote, or a binary file whose version
// is not snapshotVersion — are passed over, and the WAL alone recovers; the
// next snapshot removes them. A current-version snapshot whose bytes differ
// from the state replay re-derives at its position fails recovery loudly.
func TestOlderSnapshotVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	applyOp(t, e1, pushOp(0, 40, "rain", 1))
	applyOp(t, e1, durOp{kind: "step"})
	records := e1.Durability().WALRecords
	if err := e1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotPath(dir, 1)
	rewriteSnapshot(t, snap, func(data []byte) { data[len(snapshotMagic)] = snapshotVersion - 1 })
	legacy := filepath.Join(dir, "snap-000000000001.json")
	if err := os.WriteFile(legacy, []byte(`{"version": 3, "epochs": 1, "walRecords": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery beside older checkpoints: %v", err)
	}
	if ds := e2.Durability(); ds.SnapshotVerified || !ds.Recovered || uint64(ds.ReplayedRecords) != records || e2.Epochs() != 1 {
		t.Fatalf("want WAL-only recovery of all %d records, got %+v, %d epochs", records, ds, e2.Epochs())
	}
	applyOp(t, e2, pushOp(1, 30, "rain", 2))
	applyOp(t, e2, durOp{kind: "step"})
	if err := e2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the version-3 checkpoint survives the first current-version snapshot: %v", err)
	}
	// One more epoch leaves snapshots at epochs 2 and 3: recovery restores
	// the first and checks the second. A state the replay does not reproduce
	// must bite.
	e3, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	applyOp(t, e3, pushOp(2, 30, "rain", 3))
	applyOp(t, e3, durOp{kind: "step"})
	if err := e3.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rewriteSnapshot(t, snapshotPath(dir, 3), func(data []byte) { data[len(data)-1] ^= 1 })
	if e4, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t)); err == nil {
		e4.Shutdown()
		t.Fatal("a current-version snapshot with a different state was not checked")
	}
}

// rewriteSnapshot edits a snapshot file's bytes (without its checksum) and
// re-seals it, as a writer that disagrees with this build would have.
func rewriteSnapshot(t *testing.T, path string, edit func(data []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	edit(body)
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// --- durable control-plane behavior ---------------------------------------

func TestDurableSubmitWithSinkRejected(t *testing.T) {
	dir := t.TempDir()
	e, err := New(externalConfig(dir, 0), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	sink := stream.NewResultStore(16)
	if _, err := e.SubmitWithSink(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}, sink); err == nil {
		t.Fatal("SubmitWithSink must be rejected on a durable engine")
	}
}

// TestDurableScriptRollbackReplays proves a rolled-back script (submit
// then delete in the WAL) replays cleanly and leaves the ID sequence
// exactly where the original engine left it.
func TestDurableScriptRollbackReplays(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	// Second statement's region is outside the grid: the first insert is
	// rolled back, logging a submit and a delete.
	script := "ACQUIRE rain FROM RECT(0,0,4,4) RATE 5; ACQUIRE rain FROM RECT(100,100,200,200) RATE 5"
	if _, err := e1.SubmitScript(script); err == nil {
		t.Fatal("script should fail")
	}
	q1, err := e1.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Crash and recover: the replay must walk submit(Q1), delete(Q1),
	// submit→Q2 and land on the same registry sequence.
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer e2.Shutdown()
	qs := e2.Queries()
	if len(qs) != 1 || qs[0].ID != q1.ID {
		t.Fatalf("recovered queries %+v, want just %s", qs, q1.ID)
	}
	q3, err := e2.Submit(query.Query{Attr: "temp", Region: geom.NewRect(0, 0, 8, 8), Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if q3.ID != "Q3" {
		t.Fatalf("next ID after recovery = %s, want Q3", q3.ID)
	}
}

// --- manager recovery ------------------------------------------------------

// TestManagerRecover round-trips sessions through a manager restart:
// durable sessions come back with their queries, watermark and result
// cursors; DisableDurability sessions do not.
func TestManagerRecover(t *testing.T) {
	root := t.TempDir()
	newManager := func() *Manager {
		template := testConfig()
		template.Source = SourceConfig{Mode: SourceExternal}
		template.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
		fields := testFields(t)
		m, err := NewManager(ManagerConfig{
			NewEngine:     NewEngineFactory(template, func() (map[string]sensors.Field, error) { return fields, nil }),
			DurabilityDir: root,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := newManager()
	sess, err := m1.Create(SessionSpec{Name: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create(SessionSpec{Name: "ephemeral", DisableDurability: true}); err != nil {
		t.Fatal(err)
	}
	q, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5})
	if err != nil {
		t.Fatal(err)
	}
	applyOp(t, sess.Engine, pushOp(0, 20, "rain", 1))
	applyOp(t, sess.Engine, durOp{kind: "step"})
	applyOp(t, sess.Engine, pushOp(1, 20, "rain", 2))
	applyOp(t, sess.Engine, durOp{kind: "step"})
	// A consumer paged partway through the stream before the restart.
	firstPage, cursor, _, err := readResults(sess.Engine, q.ID, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	rest, _, _, err := readResults(sess.Engine, q.ID, cursor, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs, wantNow := sess.Engine.Epochs(), sess.Engine.Now()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newManager()
	recovered, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != "alpha" {
		t.Fatalf("recovered %v, want [alpha]", recovered)
	}
	if _, err := m2.Get("ephemeral"); err == nil {
		t.Fatal("DisableDurability session must not be recovered")
	}
	sess2, err := m2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	e2 := sess2.Engine
	if e2.Epochs() != wantEpochs || e2.Now() != wantNow {
		t.Fatalf("recovered epochs/now = %d/%g, want %d/%g", e2.Epochs(), e2.Now(), wantEpochs, wantNow)
	}
	if !e2.Durability().Recovered {
		t.Fatal("recovered session should report Recovered")
	}
	// The consumer's cursor survives: resuming from it yields exactly the
	// unread suffix, with no drops.
	got, _, dropped, err := readResults(e2, q.ID, cursor, -1)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("cursor resume dropped %d tuples", dropped)
	}
	if !reflect.DeepEqual(got, rest) {
		t.Fatalf("resumed stream not byte-identical: %d vs %d tuples", len(got), len(rest))
	}
	if len(firstPage)+len(got) == 0 {
		t.Fatal("workload produced no result tuples; test is vacuous")
	}
	// Recover is idempotent; a second call finds every name taken.
	again, err := m2.Recover()
	if err != nil || len(again) != 0 {
		t.Fatalf("second Recover = %v, %v; want none", again, err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionDirEscaping keeps hostile session names inside the root.
func TestSessionDirEscaping(t *testing.T) {
	root := "/data"
	for _, name := range []string{"..", ".", "", "a/b", "../../etc", "a b%"} {
		dir := sessionDir(root, name)
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Fatalf("sessionDir(%q) = %q escapes the root", name, dir)
		}
	}
	if sessionDir(root, "a") == sessionDir(root, "b") {
		t.Fatal("distinct names must map to distinct dirs")
	}
}

// --- journal framing bounds -----------------------------------------------

// TestUnjournalableInputsRejected: inputs the WAL cannot frame (an attr
// over wal.MaxStringLen) must fail the request up front — before the
// queue or registry applies them — leaving the engine unpoisoned and the
// log replayable. Without the bound, the uint16 length prefix truncates,
// the frame's CRC still passes, and recovery silently drops the record
// plus every acked record after it.
func TestUnjournalableInputsRejected(t *testing.T) {
	dir := t.TempDir()
	e, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	bigAttr := strings.Repeat("x", wal.MaxStringLen+1)
	if _, err := e.PushObservations([]stream.Tuple{{ID: 1, Attr: bigAttr, T: 0.5, X: 1, Y: 1}}, math.NaN()); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("oversize push: err = %v, want wal.ErrRecordTooLarge", err)
	}
	if _, err := e.Submit(query.Query{Attr: bigAttr, Region: geom.NewRect(0, 0, 8, 8), Rate: 3}); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("oversize submit: err = %v, want wal.ErrRecordTooLarge", err)
	}
	// The rejection left no trace: the normal workload still runs (a
	// sticky WAL failure would poison Step) …
	if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 3}); err != nil {
		t.Fatal(err)
	}
	applyOp(t, e, pushOp(0, 10, "rain", 1))
	applyOp(t, e, durOp{kind: "step"})
	st := e.IngestStats()
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// … and recovery replays cleanly, with no torn tail and the oversize
	// batch absent from the accounting.
	e2, err := New(externalConfig(dir, wal.FsyncAlways), testFields(t))
	if err != nil {
		t.Fatalf("recovery after oversize rejections: %v", err)
	}
	defer e2.Shutdown()
	d := e2.Durability()
	if !d.Recovered || d.TornTail {
		t.Fatalf("recovery state = %+v, want recovered without torn tail", d)
	}
	if got := e2.IngestStats(); got.Ingested != st.Ingested || got.Rejected != st.Rejected {
		t.Fatalf("recovered ingest stats %+v, want %+v", got, st)
	}
}

// --- destroy-vs-close durable state ---------------------------------------

// TestDestroyPurgesDurableState: Destroy means forget — the session's
// durability directory is removed, so re-creating the name yields a fresh
// session instead of silently resurrecting the old state (Close keeps it;
// that's the restart path).
func TestDestroyPurgesDurableState(t *testing.T) {
	root := t.TempDir()
	template := testConfig()
	template.Source = SourceConfig{Mode: SourceExternal}
	template.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
	fields := testFields(t)
	m, err := NewManager(ManagerConfig{
		NewEngine:     NewEngineFactory(template, func() (map[string]sensors.Field, error) { return fields, nil }),
		DurabilityDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.Create(SessionSpec{Name: "phoenix", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	applyOp(t, sess.Engine, pushOp(0, 10, "rain", 1))
	applyOp(t, sess.Engine, durOp{kind: "step"})
	dir := sess.Engine.dur.cfg.Dir
	if dir == "" {
		t.Fatal("durable session reports no durability dir")
	}
	if err := m.Destroy("phoenix"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("durability dir survives Destroy: stat err = %v", err)
	}
	// The name is reusable for a genuinely fresh session.
	fresh, err := m.Create(SessionSpec{Name: "phoenix", Seed: 8})
	if err != nil {
		t.Fatalf("recreate after Destroy: %v", err)
	}
	if d := fresh.Engine.Durability(); d.Recovered || fresh.Engine.Epochs() != 0 {
		t.Fatalf("recreated session resurrected state: %+v, epochs %d", d, fresh.Engine.Epochs())
	}
}

// TestCreateOverLeftoverStateConflicts: durable state left behind without a
// Destroy (idle GC, or a crashed run that was never recovered) is
// re-adopted by an equivalent spec, but a conflicting spec must fail with
// an actionable error up front — not a replay-verification failure deep in
// recovery. Destroying the non-live name purges the leftovers.
func TestCreateOverLeftoverStateConflicts(t *testing.T) {
	root := t.TempDir()
	newMgr := func() *Manager {
		template := testConfig()
		template.Source = SourceConfig{Mode: SourceExternal}
		template.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
		fields := testFields(t)
		m, err := NewManager(ManagerConfig{
			NewEngine:     NewEngineFactory(template, func() (map[string]sensors.Field, error) { return fields, nil }),
			DurabilityDir: root,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := newMgr()
	sess, err := m1.Create(SessionSpec{Name: "held", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	applyOp(t, sess.Engine, pushOp(0, 10, "rain", 1))
	applyOp(t, sess.Engine, durOp{kind: "step"})
	wantEpochs := sess.Engine.Epochs()
	if err := m1.Close(); err != nil { // Close keeps durable state
		t.Fatal(err)
	}

	m2 := newMgr()
	defer m2.Close()
	// Conflicting spec over the leftover directory: loud, actionable error.
	if _, err := m2.Create(SessionSpec{Name: "held", Seed: 9}); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("conflicting create over leftover state: err = %v, want spec-conflict error", err)
	}
	// The equivalent spec re-adopts the state.
	adopted, err := m2.Create(SessionSpec{Name: "held", Seed: 7})
	if err != nil {
		t.Fatalf("equivalent create over leftover state: %v", err)
	}
	if !adopted.Engine.Durability().Recovered || adopted.Engine.Epochs() != wantEpochs {
		t.Fatalf("equivalent spec did not re-adopt: %+v, epochs %d want %d",
			adopted.Engine.Durability(), adopted.Engine.Epochs(), wantEpochs)
	}
	if err := m2.Destroy("held"); err != nil {
		t.Fatal(err)
	}
	// Destroy of a non-live name with leftover state purges the directory.
	leftover, err := m2.Create(SessionSpec{Name: "gone", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := leftover.Engine.dur.cfg.Dir
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := newMgr()
	defer m3.Close()
	if err := m3.Destroy("gone"); err != nil {
		t.Fatalf("destroy of non-live durable name: %v", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover dir survives Destroy: stat err = %v", err)
	}
}

// segmentHold wraps the WAL segments of every engine a manager builds (as
// a segmentFS): it counts the segment files open at once and, once armed,
// holds the fsync of every segment opened before arming until release is
// closed.
type segmentHold struct {
	open, peak atomic.Int32
	armed      atomic.Bool
	entered    chan struct{} // signalled when a held fsync starts waiting
	release    chan struct{}
}

func newSegmentHold() *segmentHold {
	return &segmentHold{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (h *segmentHold) wrap(f wal.File) wal.File {
	n := h.open.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	return heldSegment{File: f, h: h, held: !h.armed.Load()}
}

type heldSegment struct {
	wal.File
	h    *segmentHold
	held bool
}

func (s heldSegment) Sync() error {
	if s.held && s.h.armed.Load() {
		select {
		case s.h.entered <- struct{}{}:
		default:
		}
		<-s.h.release
	}
	return s.File.Sync()
}

func (s heldSegment) Close() error {
	s.h.open.Add(-1)
	return s.File.Close()
}

// TestNameReservedUntilShutdown: a session's name stays taken until its
// engine has shut down — and, for Destroy, its directory is purged — so a
// Create of the same name never opens a second engine on a directory the
// first is still writing its final snapshot to and closing its log in, and
// a purge never runs under the new session. The old engine's last fsync is
// held while the new Create runs.
func TestNameReservedUntilShutdown(t *testing.T) {
	type created struct {
		sess *Session
		err  error
	}
	setup := func(t *testing.T, ttl time.Duration) (*Manager, *segmentHold, *Session) {
		root := t.TempDir()
		h := newSegmentHold()
		template := externalConfig(root, wal.FsyncAlways)
		template.Durability.SnapshotEveryEpochs = 2
		template.Durability.FS = segmentFS{FS: wal.OS, wrap: h.wrap}
		m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, template), DurabilityDir: root, IdleTTL: ttl})
		sess, err := m.Create(SessionSpec{Name: "s", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range crashScript() {
			applyOp(t, sess.Engine, op)
		}
		return m, h, sess
	}
	create := func(m *Manager) <-chan created {
		out := make(chan created, 1)
		go func() {
			sess, err := m.Create(SessionSpec{Name: "s", Seed: 7})
			out <- created{sess, err}
		}()
		return out
	}
	awaitHeld := func(t *testing.T, h *segmentHold) {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("the retiring engine never reached its final fsync")
		}
	}
	// finish gives the racing Create 200 ms while the old engine's fsync is
	// held, then lets the old engine go and returns the Create's result.
	finish := func(h *segmentHold, out <-chan created) created {
		select {
		case c := <-out:
			close(h.release)
			return c
		case <-time.After(200 * time.Millisecond):
		}
		close(h.release)
		return <-out
	}

	t.Run("idle GC", func(t *testing.T) {
		m, h, sess := setup(t, time.Minute)
		want := stateBytes(t, sess.Engine)
		later := time.Now().Add(time.Hour)
		m.now = func() time.Time { return later }
		h.armed.Store(true)
		// The Create reaps the idle session itself, then builds its successor.
		out := create(m)
		awaitHeld(t, h)
		c := finish(h, out)
		if c.err != nil {
			t.Fatal(c.err)
		}
		if n := h.peak.Load(); n > 1 {
			t.Fatalf("%d engines held the session's segments open at once", n)
		}
		if !c.sess.Engine.Durability().Recovered {
			t.Fatal("the re-created session did not recover its state")
		}
		requireSameBytes(t, want, stateBytes(t, c.sess.Engine), "re-created")
	})

	t.Run("destroy", func(t *testing.T) {
		m, h, sess := setup(t, 0)
		dir := sess.Engine.dur.cfg.Dir
		h.armed.Store(true)
		destroyed := make(chan error, 1)
		go func() { destroyed <- m.Destroy("s") }()
		awaitHeld(t, h)
		c := finish(h, create(m))
		if err := <-destroyed; err != nil {
			t.Fatal(err)
		}
		if c.err != nil {
			t.Fatal(c.err)
		}
		if n := h.peak.Load(); n > 1 {
			t.Fatalf("%d engines held the session's segments open at once", n)
		}
		if d := c.sess.Engine.Durability(); d.Recovered || c.sess.Engine.Epochs() != 0 {
			t.Fatalf("the session created after Destroy resurrected state: %+v, epochs %d", d, c.sess.Engine.Epochs())
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil || len(segs) == 0 {
			t.Fatalf("the new session's files are gone: manifest %v, segments %v", err, segs)
		}
	})
}

// TestManifestUnknownFieldRefused: a session.json carrying a field this
// build does not know (written when the spec still had A/B levers) is
// refused by name on every path that reads manifests, never replayed
// without it; destroying the name clears it.
func TestManifestUnknownFieldRefused(t *testing.T) {
	root := t.TempDir()
	dir := sessionDir(root, "old")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"name": "old", "seed": 7, "disablePlanner": true}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	names := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), `"disablePlanner"`) && strings.Contains(err.Error(), "destroy the session")
	}
	if _, err := readManifest(dir); !names(err) {
		t.Fatalf("readManifest = %v, want a refusal naming the field", err)
	}
	template := externalConfig(root, wal.FsyncNever)
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, template), DurabilityDir: root})
	if recovered, err := m.Recover(); len(recovered) != 0 || !names(err) {
		t.Fatalf("Recover = %v, %v, want a refusal naming the field", recovered, err)
	}
	if _, err := m.RecoverSession("old"); !names(err) {
		t.Fatalf("RecoverSession = %v, want a refusal naming the field", err)
	}
	if _, err := m.Create(SessionSpec{Name: "old", Seed: 7}); !names(err) {
		t.Fatalf("Create over the stale manifest = %v, want a refusal naming the field", err)
	}
	if err := m.Destroy("old"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(SessionSpec{Name: "old", Seed: 7}); err != nil {
		t.Fatalf("Create after Destroy: %v", err)
	}
}
