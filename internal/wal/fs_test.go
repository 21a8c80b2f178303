package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// segmentFS is OS with each segment opened for appending passed through
// wrap: where a test interposes on the log's writes and fsyncs.
type segmentFS struct {
	FS
	wrap func(File) File
}

func (s segmentFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_WRONLY == 0 || filepath.Ext(name) != segSuffix {
		return f, err
	}
	return s.wrap(f), nil
}

// tornFile drops everything after a byte budget — the torn-write wrapper
// that models a power cut mid-append.
type tornFile struct {
	File
	budget int
}

func (tf *tornFile) Write(p []byte) (int, error) {
	if tf.budget <= 0 {
		return len(p), nil // swallowed: the "disk" never saw it
	}
	n := len(p)
	if n > tf.budget {
		n = tf.budget
	}
	if _, err := tf.File.Write(p[:n]); err != nil {
		return 0, err
	}
	tf.budget -= n
	return len(p), nil // lie like a crashed page cache would
}

func TestSegmentTornWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir,
		FS: segmentFS{FS: OS, wrap: func(f File) File {
			return &tornFile{File: f, budget: 70}
		}},
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Only a prefix hit the disk; recovery must land on a record boundary.
	l2, _, got := openForAppend(t, dir, Config{})
	defer l2.Close()
	if len(got) >= len(recs) {
		t.Fatalf("torn write persisted all %d records", len(got))
	}
	recordsEqual(t, recs[:len(got)], got)
}

// --- write orders -----------------------------------------------------------

// recFS is OS with every operation that decides what survives a power cut
// — creating, fsyncing, renaming, removing or truncating a file, and making
// or fsyncing a directory — logged in order as "op path", paths relative to
// root. With noSpare set it refuses to create the spare, so every rotation
// creates its segment empty.
type recFS struct {
	FS
	root    string
	noSpare bool
	mu      sync.Mutex
	ops     []string
}

func (r *recFS) did(err error, op string, paths ...string) error {
	if err != nil {
		return err
	}
	for _, p := range paths {
		rel, rerr := filepath.Rel(r.root, p)
		if rerr != nil {
			rel = p
		}
		op += " " + rel
	}
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return nil
}

func (r *recFS) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func (r *recFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if r.noSpare && filepath.Base(name) == spareName {
		return nil, os.ErrPermission
	}
	f, err := r.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_WRONLY == 0 {
		return f, err
	}
	if flag&os.O_CREATE != 0 {
		r.did(nil, "create", name)
	}
	return recFile{File: f, fs: r, name: name}, nil
}

type recFile struct {
	File
	fs   *recFS
	name string
}

func (f recFile) Sync() error { return f.fs.did(f.File.Sync(), "sync", f.name) }

func (r *recFS) Rename(oldpath, newpath string) error {
	return r.did(r.FS.Rename(oldpath, newpath), "rename", oldpath, newpath)
}
func (r *recFS) Remove(name string) error { return r.did(r.FS.Remove(name), "remove", name) }
func (r *recFS) Truncate(name string, size int64) error {
	return r.did(r.FS.Truncate(name, size), "truncate", name)
}
func (r *recFS) Mkdir(name string, perm os.FileMode) error {
	return r.did(r.FS.Mkdir(name, perm), "mkdir", name)
}
func (r *recFS) SyncDir(name string) error { return r.did(r.FS.SyncDir(name), "syncdir", name) }

// at returns the index of the first op in ops[from:] equal to op, or −1
// (also for a negative from).
func at(ops []string, op string, from int) int {
	for i := max(from, 0); from >= 0 && i < len(ops); i++ {
		if ops[i] == op {
			return i
		}
	}
	return -1
}

// requireSyncedBefore fails unless, after ops[made] put seg's name in the
// directory, the directory is fsynced before seg's first fsync — the one
// that acks the first record in it.
func requireSyncedBefore(t *testing.T, ops []string, made int, seg string) {
	t.Helper()
	d, s := at(ops, "syncdir .", made), at(ops, "sync "+seg, 0)
	if made < 0 || d < 0 || s < d {
		t.Fatalf("%s: made at op %d, directory synced at %d, first record acked at %d:\n%s",
			seg, made, d, s, strings.Join(ops, "\n"))
	}
}

// TestNewSegmentSyncedBeforeAck: a segment created empty — the first one, and
// each rotation with no spare ready — has its name made durable by a
// directory fsync before any record in it is acked.
func TestNewSegmentSyncedBeforeAck(t *testing.T) {
	dir := t.TempDir()
	rec := &recFS{FS: OS, root: dir, noSpare: true}
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: 128, FS: rec})
	for i := 1; l.Stats().Segments < 3; i++ {
		if err := l.Append(&Record{Type: TypeEpoch, T1: float64(i), Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ops := rec.log()
	for n := 1; n <= 3; n++ {
		seg := fmt.Sprintf("wal-%08d.seg", n)
		requireSyncedBefore(t, ops, at(ops, "create "+seg, 0), seg)
	}
}

// TestSpareRotationSyncsDirectory: rotation onto a filled spare renames it
// to the next segment's name, then fsyncs the directory, before any record
// in the segment is acked.
func TestSpareRotationSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	rec := &recFS{FS: OS, root: dir}
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: spareSegBytes, FS: rec})
	appendOntoSpare(t, l, 1, 1)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ops := rec.log()
	seg := fmt.Sprintf("wal-%08d.seg", 2)
	requireSyncedBefore(t, ops, at(ops, "rename "+spareName+" "+seg, 0), seg)
}

// TestTornRepairSyncsDirectory: a torn tail mid-log is truncated and the
// segments after it removed, then the directory is fsynced, all before
// Replay returns — so no later append can be acked while a removed segment
// may still come back.
func TestTornRepairSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: 128})
	appendEpochs(t, l, 1, 32)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segPath(dir, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &recFS{FS: OS, root: dir}
	l2, rep, _ := openForAppend(t, dir, Config{SegmentBytes: 128, FS: rec})
	defer l2.Close()
	ops := rec.log()
	last := -1
	for i, op := range ops {
		if strings.HasPrefix(op, "remove wal-") && strings.HasSuffix(op, segSuffix) {
			last = i
		}
	}
	tr := at(ops, "truncate wal-00000002.seg", 0)
	if !rep.Torn || tr < 0 || last < tr || at(ops, "syncdir .", last) < 0 {
		t.Fatalf("torn %v: truncated at op %d, last segment removed at %d, no directory fsync after:\n%s",
			rep.Torn, tr, last, strings.Join(ops, "\n"))
	}
}
