package server

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wal"
)

// segmentFS is wal.OS with each WAL segment opened for appending passed
// through wrap: where the fault tests interpose on the log's writes and
// fsyncs.
type segmentFS struct {
	wal.FS
	wrap func(wal.File) wal.File
}

func (s segmentFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_WRONLY == 0 || filepath.Ext(name) != ".seg" {
		return f, err
	}
	return s.wrap(f), nil
}

// recFS is wal.OS with every operation that decides what survives a power
// cut — creating, fsyncing, renaming, removing or truncating a file, and
// making or fsyncing a directory — logged in order as "op path", paths
// relative to root. A test logs its own events (an ack) with did. A Mkdir of
// a path in raced makes the directory and then reports os.ErrExist, as when a
// concurrent wal.Open made it first.
type recFS struct {
	wal.FS
	root  string
	raced []string
	mu    sync.Mutex
	ops   []string
}

func newRecFS(root string) *recFS { return &recFS{FS: wal.OS, root: root} }

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

func (r *recFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
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
	wal.File
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
	err := r.did(r.FS.Mkdir(name, perm), "mkdir", name)
	if rel, _ := filepath.Rel(r.root, name); err == nil && slices.Contains(r.raced, rel) {
		return os.ErrExist
	}
	return err
}
func (r *recFS) SyncDir(name string) error { return r.did(r.FS.SyncDir(name), "syncdir", name) }

// opAt returns the index of the first op in ops[from:] equal to op, or −1
// (also for a negative from).
func opAt(ops []string, op string, from int) int {
	for i := max(from, 0); from >= 0 && i < len(ops); i++ {
		if ops[i] == op {
			return i
		}
	}
	return -1
}

// requireOps fails unless ops holds each of want, in that order, each the
// first match after the one before.
func requireOps(t *testing.T, ops []string, want ...string) {
	t.Helper()
	at := 0
	for _, op := range want {
		if at = opAt(ops, op, at); at < 0 {
			t.Fatalf("no %q where %q wants it:\n%s", op, want, strings.Join(ops, "\n"))
		}
	}
}

// recordedSession creates durable session s under a fresh root through a
// manager whose engines use a recording FS (whose Mkdir of each raced path
// reports os.ErrExist), pushes one batch, and returns the op log with "ack"
// where the push returned.
func recordedSession(t *testing.T, fsync wal.Policy, raced ...string) []string {
	t.Helper()
	_, rec := recordedManager(t, fsync, raced...)
	return rec.log()
}

// recordedManager is recordedSession's manager, with the recording FS.
func recordedManager(t *testing.T, fsync wal.Policy, raced ...string) (*Manager, *recFS) {
	t.Helper()
	root := t.TempDir()
	rec := newRecFS(root)
	rec.raced = raced
	template := externalConfig(root, fsync)
	template.Durability.FS = rec
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, template), DurabilityDir: root})
	sess, err := m.Create(SessionSpec{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5}); err != nil {
		t.Fatal(err)
	}
	op := pushOp(0, 20, "rain", math.NaN())
	if _, err := sess.Engine.PushObservations(op.tuples, op.watermark); err != nil {
		t.Fatal(err)
	}
	rec.did(nil, "ack")
	return m, rec
}

// TestCreatedDirectoriesSynced: wal.Open creates sessions/, the session's
// directory and its wal/, and fsyncs each one's parent after creating it —
// so the first acked push cannot lose its segment's path in a power cut.
// Under fsync=never nothing is fsynced.
func TestCreatedDirectoriesSynced(t *testing.T) {
	ops := recordedSession(t, wal.FsyncAlways)
	requireOps(t, ops, "mkdir sessions", "syncdir .",
		"mkdir sessions/s", "syncdir sessions",
		"mkdir sessions/s/wal", "syncdir sessions/s", "ack")
	for _, op := range recordedSession(t, wal.FsyncNever) {
		if strings.HasPrefix(op, "sync") {
			t.Fatalf("fsync=never ran %q", op)
		}
	}
}

// TestDestroyPurgeDurable: DELETE removes every file and directory of the
// session through the engine's filesystem, and fsyncs sessions/ after the
// last removal, before Destroy returns — so a power cut cannot leave the
// directory for Recover to re-adopt a destroyed session from. Under
// fsync=never nothing is fsynced.
func TestDestroyPurgeDurable(t *testing.T) {
	for _, fsync := range []wal.Policy{wal.FsyncBatch, wal.FsyncNever} {
		m, rec := recordedManager(t, fsync)
		rec.did(nil, "destroy")
		if err := m.Destroy("s"); err != nil {
			t.Fatal(err)
		}
		rec.did(nil, "destroyed")
		ops := rec.log()
		// What the log says is on disk when Destroy returns.
		present := map[string]bool{}
		for _, op := range ops {
			switch f := strings.Fields(op); f[0] {
			case "create", "mkdir":
				present[f[1]] = true
			case "rename":
				delete(present, f[1])
				present[f[2]] = true
			case "remove":
				delete(present, f[1])
			}
		}
		for p := range present {
			if p == "sessions/s" || strings.HasPrefix(p, "sessions/s/") {
				t.Errorf("fsync=%v: %s not removed through the filesystem:\n%s", fsync, p, strings.Join(ops, "\n"))
			}
		}
		if _, err := os.Stat(filepath.Join(rec.root, "sessions", "s")); !os.IsNotExist(err) {
			t.Fatalf("fsync=%v: session directory left behind: %v", fsync, err)
		}
		// The purge starts at the first removal after the engine's shutdown.
		purge := slices.IndexFunc(ops, func(op string) bool { return strings.HasPrefix(op, "remove sessions/s/") })
		if purge < opAt(ops, "destroy", 0) {
			t.Fatalf("fsync=%v: no removal after destroy:\n%s", fsync, strings.Join(ops, "\n"))
		}
		if fsync == wal.FsyncNever {
			for _, op := range ops[purge:] {
				if strings.HasPrefix(op, "sync") {
					t.Fatalf("fsync=never purge ran %q", op)
				}
			}
			continue
		}
		requireOps(t, ops[purge:], "remove sessions/s", "syncdir sessions", "destroyed")
	}
}

// TestRacedSessionsDirSynced: when another session's wal.Open makes
// sessions/ first, this one finds it there, and the root's entry for it may
// not be durable yet. Having made its own directory below sessions/, it
// fsyncs the root as well before its first ack.
func TestRacedSessionsDirSynced(t *testing.T) {
	requireOps(t, recordedSession(t, wal.FsyncBatch, "sessions"),
		"mkdir sessions/s", "syncdir sessions", "syncdir .", "ack")
}

// TestManifestDurable: creating a durable session writes its manifest to a
// temporary, fsyncs it, renames it into place and fsyncs the session
// directory — before the session's first push is acked.
func TestManifestDurable(t *testing.T) {
	tmp, path := "sessions/s/"+manifestName+".tmp", "sessions/s/"+manifestName
	requireOps(t, recordedSession(t, wal.FsyncBatch),
		"create "+tmp, "sync "+tmp, "rename "+tmp+" "+path, "syncdir sessions/s", "ack")
}

// TestSnapshotWriteOrder: every snapshot is fsynced as a temporary, renamed
// into place and its directory fsynced, and only after that does
// compaction delete the WAL segments it makes unnecessary.
func TestSnapshotWriteOrder(t *testing.T) {
	c := smallSegments(crashCases()[0])
	dir := t.TempDir()
	rec := newRecFS(dir)
	cfg := c.cfg(dir)
	cfg.Durability.FS = rec
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range c.ops {
		applyOp(t, e, op)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ops := rec.log()
	synced := make(map[string]bool) // whether each file is fsynced since created
	renamed, removed := -1, 0       // the last snapshot rename seen
	for i, op := range ops {
		f := strings.Fields(op)
		switch {
		case f[0] == "create" || f[0] == "sync":
			synced[f[1]] = f[0] == "sync"
		case f[0] == "rename" && strings.HasPrefix(f[1], snapPrefix):
			if renamed = i; !synced[f[1]] {
				t.Fatalf("%s renamed at op %d before it was fsynced:\n%s", f[1], i, strings.Join(ops, "\n"))
			}
		case f[0] == "remove" && filepath.Ext(f[1]) == ".seg":
			if d := opAt(ops, "syncdir .", renamed); renamed < 0 || d < 0 || d > i {
				t.Fatalf("%s removed at op %d before the snapshot renamed at %d was durable:\n%s", f[1], i, renamed, strings.Join(ops, "\n"))
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatalf("the script deleted no segment; the test checks nothing:\n%s", strings.Join(ops, "\n"))
	}
}
