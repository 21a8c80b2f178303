package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stream"
	"repro/internal/wal"
)

// errKill is what the fault hooks below return: the snapshot write stops
// there, as a SIGKILL would stop it, and the test abandons the engine.
var errKill = errors.New("simulated kill")

// smallSegments makes a case rotate its log every kilobyte, so snapshots
// follow rotations and compaction deletes segments within a short script.
func smallSegments(c crashCase) crashCase {
	cfg := c.cfg
	c.cfg = func(dir string) Config {
		out := cfg(dir)
		if dir != "" {
			out.Durability.SegmentBytes = 1 << 10
		}
		return out
	}
	return c
}

// runUntilKill runs the case's script on a durable engine in dir with its
// fault hook calling fault on the n-th snapshot write, and returns how
// many ops completed. The op whose snapshot died counts: its epoch is in
// the log.
func runUntilKill(t *testing.T, c crashCase, dir string, n int, fault func(stage, path string) error) int {
	t.Helper()
	e, err := New(c.cfg(dir), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	e.dur.fault = func(stage, path string) error {
		if stage == "written" {
			writes++
		}
		if writes == n {
			return fault(stage, path)
		}
		return nil
	}
	for i, op := range c.ops {
		if err := doOp(e, op); err != nil {
			if !errors.Is(err, errKill) {
				t.Fatal(err)
			}
			return i + 1
		}
	}
	t.Fatalf("the script wrote %d snapshots, fewer than %d", writes, n)
	return 0
}

// requireRecoversLikeControl recovers dir after a kill that followed
// c.ops[:done] and requires the state to equal a non-durable control's at
// that point, then after the rest of the script and its tail.
func requireRecoversLikeControl(t *testing.T, c crashCase, dir string, done int) *Engine {
	t.Helper()
	control, err := New(c.cfg(""), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range c.ops[:done] {
		applyOp(t, control, op)
	}
	e, err := New(c.cfg(dir), testFields(t))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e), "recovered")
	for _, op := range append(c.ops[done:len(c.ops):len(c.ops)], c.tail...) {
		applyOp(t, control, op)
		applyOp(t, e, op)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e), "finished")
	requireSameState(t, captureState(t, control), captureState(t, e), "finished")
	return e
}

func truncateHalf(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFaults kills a session at each point of a snapshot write —
// with its temporary torn, with the renamed file torn, and after the rename
// but before segments are deleted — and corrupts the newest snapshot of a
// session killed afterwards. Every time recovery falls back as far as it
// must, and the session then equals an uninterrupted control.
func TestSnapshotFaults(t *testing.T) {
	c := smallSegments(crashCases()[0])
	t.Run("torn temporary", func(t *testing.T) {
		dir := t.TempDir()
		done := runUntilKill(t, c, dir, 3, func(stage, path string) error {
			truncateHalf(t, path)
			return errKill
		})
		if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 1 {
			t.Fatalf("want the torn temporary on disk, found %v", matches)
		}
		e := requireRecoversLikeControl(t, c, dir, done)
		e.Shutdown()
		if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
			t.Fatalf("later snapshots left the torn temporary: %v", matches)
		}
	})
	t.Run("torn final file", func(t *testing.T) {
		dir := t.TempDir()
		done := runUntilKill(t, c, dir, 3, func(stage, path string) error {
			if stage != "renamed" {
				return nil
			}
			truncateHalf(t, path)
			return errKill
		})
		requireRecoversLikeControl(t, c, dir, done).Shutdown()
	})
	t.Run("killed before segment deletion", func(t *testing.T) {
		dir := t.TempDir()
		done := runUntilKill(t, c, dir, 4, func(stage, path string) error {
			if stage != "renamed" {
				return nil
			}
			return errKill
		})
		before, _ := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
		e := requireRecoversLikeControl(t, c, dir, done)
		defer e.Shutdown()
		after, _ := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
		if len(before) == 0 || len(after) == 0 || after[0] <= before[0] {
			t.Fatalf("the segments left behind by the kill were never deleted: %v before, %v after", before, after)
		}
	})
	t.Run("corrupt newest", func(t *testing.T) {
		dir := t.TempDir()
		e1, err := New(c.cfg(dir), testFields(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range c.ops {
			applyOp(t, e1, op)
		}
		if !e1.dur.log.Compacted() {
			t.Fatal("the script did not compact the log; the case tests nothing")
		}
		snaps, err := readSnapshots(dir)
		if err != nil || len(snaps) != keptSnapshots {
			t.Fatalf("want %d snapshots, got %d (%v)", keptSnapshots, len(snaps), err)
		}
		data := snaps[0].data
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(snaps[0].path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		requireRecoversLikeControl(t, c, dir, len(c.ops)).Shutdown()
	})
}

// TestAllSnapshotsCorruptAfterCompactionFails: once segments are deleted a
// snapshot is the only way back, so a directory whose snapshots are all
// corrupt must fail recovery loudly and be left as it is.
func TestAllSnapshotsCorruptAfterCompactionFails(t *testing.T) {
	c := smallSegments(crashCases()[0])
	dir := t.TempDir()
	e1, err := New(c.cfg(dir), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range c.ops {
		applyOp(t, e1, op)
	}
	if err := e1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snaps, err := readSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	for _, s := range snaps {
		s.data[len(snapshotMagic)+3] ^= 0xff
		if err := os.WriteFile(s.path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*", "*"))
	if _, err := New(c.cfg(dir), testFields(t)); err == nil || !strings.Contains(err.Error(), "no usable snapshot") {
		t.Fatalf("recovery with every snapshot corrupt after compaction: err = %v", err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "*", "*"))
	if len(after) != len(before) {
		t.Fatalf("a failed recovery changed the directory: %v → %v", before, after)
	}
	for _, s := range snaps {
		if _, err := os.Stat(s.path); err != nil {
			t.Fatalf("a failed recovery removed %s: %v", s.path, err)
		}
	}
}

// upgradeScript is the workload testdata/v3-session was written with, by the
// last build whose snapshots were version-3 JSON checkpoints (snapshots
// every two epochs, adaptive rates on, fsync=always, then Shutdown).
func upgradeScript() []durOp {
	full, half := geom.NewRect(0, 0, 8, 8), geom.NewRect(0, 0, 4, 4)
	step := durOp{kind: "step"}
	return []durOp{
		{kind: "submit", q: query.Query{Attr: "rain", Region: full, Rate: 6}},
		{kind: "submit", q: query.Query{Attr: "rain", Region: half, Rate: 3}},
		{kind: "submit", q: query.Query{Attr: "rain", Region: full, Rate: 6}},
		pushOp(0, 40, "rain", math.NaN()), pushOp(1, 20, "rain", 1), step,
		{kind: "submit", q: query.Query{Attr: "temp", Region: half, Rate: 4}},
		pushOp(1, 30, "rain", math.NaN()), pushOp(2, 25, "temp", 2), step,
		{kind: "delete", id: "Q1"},
		pushOp(2, 35, "rain", math.NaN()), pushOp(3, 20, "rain", 3), step,
		pushOp(3, 15, "temp", 4), step,
		pushOp(4, 10, "rain", math.NaN()),
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeFromVersion3Directory recovers a session directory written by
// the last version-3 build: its JSON checkpoints are passed over, the whole
// WAL replays to the state — result streams included — an uninterrupted
// session of this build reaches on the same workload, and from its first
// snapshots on the session compacts like any other.
func TestUpgradeFromVersion3Directory(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v3-session"), dir)
	cfg := func(dir string) Config {
		cfg := externalConfig(dir, wal.FsyncAlways)
		cfg.AdaptiveRates = true
		if dir != "" {
			cfg.Durability.SnapshotEveryEpochs = 2
			cfg.Durability.SegmentBytes = 1 << 10
		}
		return cfg
	}
	control, err := New(cfg(""), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	script := upgradeScript()
	for _, op := range script {
		applyOp(t, control, op)
	}
	e, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatalf("recovering the version-3 directory: %v", err)
	}
	ds := e.Durability()
	if !ds.Recovered || ds.SnapshotVerified || ds.LastSnapshotEpoch != 0 || uint64(ds.ReplayedRecords) != ds.WALRecords || ds.WALRecords != uint64(len(script)) {
		t.Fatalf("want a full replay of %d records, got %+v", len(script), ds)
	}
	requireSameState(t, captureState(t, control), captureState(t, e), "upgraded")
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e), "upgraded")
	for i := 4; i < 12; i++ {
		for _, op := range []durOp{pushOp(float64(i), 30, "rain", float64(i+1)), {kind: "step"}} {
			applyOp(t, control, op)
			applyOp(t, e, op)
		}
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(legacy) != 0 {
		t.Fatalf("version-3 checkpoints survive the first snapshots: %v", legacy)
	}
	if !e.dur.log.Compacted() {
		t.Fatal("the upgraded session never deleted a segment")
	}
	// Crash, and recover from the new snapshots.
	e2, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatalf("recovery after the upgrade: %v", err)
	}
	defer e2.Shutdown()
	if !e2.Durability().SnapshotVerified {
		t.Fatalf("recovery after the upgrade did not verify a snapshot: %+v", e2.Durability())
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e2), "recovered after upgrade")
}

// TestReplayAndSegmentsBounded runs 200 epochs on a session whose log
// rotates every few epochs. Snapshots follow the rotations, segments behind
// the kept snapshots are deleted, and a crash at the end replays at most two
// snapshot intervals of records — into a state equal to the control's.
func TestReplayAndSegmentsBounded(t *testing.T) {
	const epochs, perEpoch = 200, 2 // records per epoch: one push, one drain
	cfg := func(dir string) Config {
		cfg := externalConfig(dir, wal.FsyncNever)
		if dir != "" {
			cfg.Durability.SegmentBytes = 4 << 10
		}
		return cfg
	}
	dir := t.TempDir()
	e, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(cfg(""), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	ops := []durOp{{kind: "submit", q: query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}}}
	for i := 0; i < epochs; i++ {
		ops = append(ops, pushOp(float64(i), 20, "rain", float64(i+1)), durOp{kind: "step"})
	}
	maxSegs := 0
	for _, op := range ops {
		applyOp(t, e, op)
		applyOp(t, control, op)
		maxSegs = max(maxSegs, e.Durability().WALSegments)
	}
	ds := e.Durability()
	if maxSegs > 4 || ds.WALRecords != uint64(len(ops)) {
		t.Fatalf("log grew to %d segments (%+v)", maxSegs, ds)
	}
	e2, err := New(cfg(dir), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown()
	if got, limit := e2.Durability().ReplayedRecords, 2*DefaultSnapshotEvery*perEpoch; got > limit {
		t.Fatalf("recovery replayed %d records, more than two snapshot intervals (%d)", got, limit)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, e2), "recovered")
}

// fuzzConfig is a small engine for FuzzSnapshotDecode: four cells, four
// sensors and 32-tuple rings keep both the seed snapshots (which the fuzzer
// mutates and minimizes) and what arbitrary input can make it allocate
// small.
func fuzzConfig(mode SourceMode) Config {
	cfg := testConfig()
	cfg.GridCells = 4
	cfg.Fleet.N = 4
	cfg.Retention = 32
	cfg.AdaptiveRates = mode != SourceExternal
	cfg.Source = SourceConfig{Mode: mode}
	return cfg
}

// FuzzSnapshotDecode: arbitrary engine state bytes either restore into a
// fresh engine and re-encode to exactly the same bytes, or fail with an
// error — never a panic. The first byte picks the engine's source mode; the
// checksum is appended by the harness, so the fuzzer reaches the decoder.
func FuzzSnapshotDecode(f *testing.F) {
	fields := func() map[string]sensors.Field {
		rain, _ := sensors.NewRainField(geom.NewRect(0, 0, 8, 8), []sensors.Storm{{X0: 2, Y0: 2, VX: 0.1, Radius: 2}})
		temp, _ := sensors.NewTempField(20, 0.2, 0, 3, 24, 0, nil)
		return map[string]sensors.Field{"rain": rain, "temp": temp}
	}
	for _, mode := range []SourceMode{SourceExternal, SourceSimulated, SourceMixed} {
		e, err := New(fuzzConfig(mode), fields())
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range []query.Query{
			{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5},
			{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3},
			{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5},
		} {
			if _, err := e.Submit(q); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if mode != SourceSimulated {
				if _, err := e.PushObservations(pushOp(float64(i), 12, "rain", float64(i+1)).tuples, float64(i+1)); err != nil {
					f.Fatal(err)
				}
			}
			if err := e.Step(); err != nil {
				f.Fatal(err)
			}
		}
		if mode != SourceSimulated {
			if _, err := e.PushObservations([]stream.Tuple{{ID: 5, Attr: "rain", T: 2.5, X: 1, Y: 1}}, math.NaN()); err != nil {
				f.Fatal(err)
			}
		}
		state := stateBytes(f, e)
		f.Logf("%s seed: %d bytes", mode, len(state))
		f.Add(append([]byte{byte(mode)}, state[:len(state)-4]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e, err := New(fuzzConfig(SourceMode(data[0]%3)), fields())
		if err != nil {
			t.Fatal(err)
		}
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), data[1:]...), crc32.ChecksumIEEE(data[1:]))
		if err := e.restoreState(sealed); err != nil {
			return
		}
		_, pos, _, err := readSnapshotHeader(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if off, ok := e.matchState(pos, sealed); !ok {
			t.Fatalf("restored state re-encodes differently from byte %d", off)
		}
	})
}
