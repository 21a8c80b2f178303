package server

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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

// runUntilKill runs the case's script on a durable engine in dir whose FS
// calls fault on the n-th snapshot write, and returns how many ops
// completed. The op whose snapshot died counts: its epoch is in the log.
func runUntilKill(t *testing.T, c crashCase, dir string, n int, fault func(stage, path string) error) int {
	t.Helper()
	cfg := c.cfg(dir)
	k := &killFS{FS: wal.OS, n: n, fault: fault}
	cfg.Durability.FS = k
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range c.ops {
		if err := doOp(e, op); err != nil {
			if !errors.Is(err, errKill) {
				t.Fatal(err)
			}
			return i + 1
		}
	}
	t.Fatalf("the script wrote %d snapshots, fewer than %d", k.writes, n)
	return 0
}

// killFS is wal.OS that, on the n-th rename of a snapshot's temporary,
// calls fault before the rename with the temporary ("written": an error
// fails the rename) and after it with the snapshot ("renamed": an error
// fails the write once the file is in place), as a kill at either point.
type killFS struct {
	wal.FS
	n, writes int
	fault     func(stage, path string) error
}

func (k *killFS) Rename(oldpath, newpath string) error {
	if !strings.HasPrefix(filepath.Base(oldpath), snapPrefix) {
		return k.FS.Rename(oldpath, newpath)
	}
	if k.writes++; k.writes == k.n {
		if err := k.fault("written", oldpath); err != nil {
			return err
		}
	}
	if err := k.FS.Rename(oldpath, newpath); err != nil || k.writes != k.n {
		return err
	}
	return k.fault("renamed", newpath)
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
		snaps, err := readSnapshots(wal.OS, dir)
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
	snaps, err := readSnapshots(wal.OS, dir)
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

// v4Template is the manager template testdata/v4-session was written under:
// a mixed source, adaptive rates, 64-tuple rings, snapshots every two epochs
// and fsync=always. The session is "v4", seed 7.
func v4Template(root string) Config {
	cfg := testConfig()
	cfg.Source = SourceConfig{Mode: SourceMixed}
	cfg.AdaptiveRates = true
	cfg.Retention = 64
	cfg.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways, SnapshotEveryEpochs: 2}
	return cfg
}

// v4Script is the workload testdata/v4-session holds. It was run by the last
// build that kept live queries in a registry next to the fabricator, and the
// engine was then abandoned, as a kill leaves it. Q2 rides the subplan Q1
// created before Q1 was deleted, Q3 overlaps its cells partially, and Q5
// joins the orphaned subplan later. Snapshots stand at epochs 4 and 6; a
// submit, a push, an epoch and a pending push follow the newer one in the
// WAL.
func v4Script() []durOp {
	full := geom.NewRect(0, 0, 8, 8)
	submit := func(attr string, r geom.Rect, rate float64) durOp {
		return durOp{kind: "submit", q: query.Query{Attr: attr, Region: r, Rate: rate}}
	}
	step := durOp{kind: "step"}
	nan := math.NaN()
	return []durOp{
		submit("rain", full, 5), submit("rain", full, 5), submit("rain", geom.NewRect(1, 1, 5, 5), 3),
		submit("temp", geom.NewRect(0, 0, 4, 4), 4), step,
		pushOp(1, 20, "rain", nan), pushOp(1, 10, "rain", 2), step,
		{kind: "delete", id: "Q1"}, pushOp(2, 15, "temp", 3), step,
		pushOp(3, 20, "rain", 4), step,
		submit("rain", full, 5), pushOp(4, 10, "rain", 5), step,
		pushOp(5, 10, "temp", 6), step,
		submit("temp", geom.NewRect(4, 4, 8, 8), 2), pushOp(6, 12, "rain", 7), step,
		pushOp(7, 8, "rain", nan),
	}
}

// v4Results are the sha256 sums of every live query's
// GET …/results/{id}?cursor=0 body, as the build that wrote
// testdata/v4-session served them after recovering it.
var v4Results = map[string]string{
	"Q2": "85bc0651820b1b95800eae902947936e19abae42d3865b63f2225f3809a9be7c",
	"Q3": "e182df2b4ad07266ff21af5f8c4bab419c8becb10cb996f62001c84f2c7b55e6",
	"Q4": "94228b0ded8c5cea121bf9e3874ace349c013ce8164a9003dc0dd6ff40cc110b",
	"Q5": "5334c6c9838bc915a2a1d4e0ba701359677b38a54370bfd4d68893f199f25389",
	"Q6": "68f425405597c454dfe79e7cfd275e0623bbf15e3f2574d9af4fb9efa0c1b970",
}

// TestRestoreVersion4Directory recovers a session directory an earlier build
// wrote through a manager, as a restarted daemon would: the older snapshot
// restores, the replay verifies against the newer one, every result page
// hashes to what that build served, the whole state equals an uninterrupted
// run of the workload, and query numbering continues after the last ID the
// directory assigned.
func TestRestoreVersion4Directory(t *testing.T) {
	root := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v4-session"), sessionDir(root, "v4"))
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, v4Template(root)), DurabilityDir: root})
	if recovered, err := m.RecoverSession("v4"); err != nil || !recovered {
		t.Fatalf("RecoverSession = %v, %v", recovered, err)
	}
	sess, err := m.Get("v4")
	if err != nil {
		t.Fatal(err)
	}
	if ds := sess.Engine.Durability(); !ds.SnapshotVerified || ds.LastSnapshotEpoch != 6 || ds.TornTail {
		t.Fatalf("durability after recovery = %+v, want the epoch-6 snapshot verified", ds)
	}
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()
	var ids []string
	for _, q := range sess.Engine.Queries() {
		ids = append(ids, q.ID)
	}
	if got := strings.Join(ids, ","); got != "Q2,Q3,Q4,Q5,Q6" {
		t.Fatalf("live queries = %s", got)
	}
	for _, id := range ids {
		resp, err := ts.Client().Get(ts.URL + "/v1/sessions/v4/results/" + id + "?cursor=0")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("results of %s: %d, %v", id, resp.StatusCode, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != v4Results[id] {
			t.Errorf("results of %s hash to %s, want %s", id, got, v4Results[id])
		}
	}

	cfg, err := ConfigForSpec(v4Template(""), sess.Spec)
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range v4Script() {
		applyOp(t, control, op)
	}
	requireSameBytes(t, stateBytes(t, control), stateBytes(t, sess.Engine), "restored")

	q, err := sess.Engine.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,4,4) RATE 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "Q7" {
		t.Fatalf("first submit after recovery got %s, want Q7", q.ID)
	}
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
