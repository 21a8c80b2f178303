package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/codec"
	"repro/internal/ingest"
	"repro/internal/wal"
)

// snapshotVersion is bumped on any incompatible change to the snapshot
// format or to what restoring one reproduces. Version 4 made snapshots
// restore points: a binary, CRC-checked file holding the session's full
// state. Versions 1–3 were JSON verification checkpoints (snap-N.json);
// recovery ignores them, so a directory written before version 4 recovers
// by replaying its whole WAL and starts compacting at its first version-4
// snapshot. Other versions are passed over the same way.
const snapshotVersion = 4

// snapshotMagic opens every snapshot file.
const snapshotMagic = "CRAQSNAP"

// keptSnapshots is how many snapshots a session keeps: recovery restores
// from the older one and checks the replayed state against the newer, and
// WAL segments wholly behind the older one are deleted.
const keptSnapshots = 2

const snapPrefix = "snap-"

func snapshotPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%012d", snapPrefix, epoch))
}

// snapshotEpoch parses the epoch count out of a snapshot file name; false
// for any other file (temporaries and checkpoints of earlier versions
// included).
func snapshotEpoch(name string) (int, bool) {
	if len(name) != len(snapPrefix)+12 || name[:len(snapPrefix)] != snapPrefix {
		return 0, false
	}
	n, err := strconv.Atoi(name[len(snapPrefix):])
	return n, err == nil && n >= 0
}

// snapshotFile is a snapshot read from disk whose checksum and header
// passed.
type snapshotFile struct {
	path   string
	epochs int
	pos    wal.Position
	data   []byte // the whole file
}

// readSnapshotHeader opens a snapshot's bytes: checksum, magic, version,
// then the WAL position and epoch count the state stands at. The returned
// Reader is positioned at the engine state.
func readSnapshotHeader(data []byte) (*codec.Reader, wal.Position, int, error) {
	rd, err := codec.Open(data)
	if err != nil {
		return nil, wal.Position{}, 0, err
	}
	if magic := rd.Raw(len(snapshotMagic)); string(magic) != snapshotMagic {
		return nil, wal.Position{}, 0, fmt.Errorf("%w: not a snapshot", codec.ErrCorrupt)
	}
	if v := rd.Uvarint(); v != snapshotVersion && rd.Err() == nil {
		return nil, wal.Position{}, 0, fmt.Errorf("%w: snapshot version %d, this build reads %d", codec.ErrCorrupt, v, snapshotVersion)
	}
	pos := wal.Position{Segment: rd.Int(), Offset: rd.Varint(), Records: rd.Uvarint()}
	epochs := rd.Int()
	return rd, pos, epochs, rd.Err()
}

// encodeState writes the engine's full state, as a snapshot file, to w: the
// header (WAL position pos and the epoch count), then everything a later
// epoch, ack or read depends on — time and session counters, the ingest
// queue (qs, captured at pos), the handler and fleet when the source is
// simulated, the fabricator with its queries, result rings and operator
// state, and both budget controllers — and the checksum. stepMu must be
// held; nothing but the queue moves without it. Map-backed state is written
// in sorted order, so equal states encode to equal bytes.
func (e *Engine) encodeState(w *codec.Writer, pos wal.Position, qs *ingest.QueueState) error {
	e.mu.Lock()
	epochs, now, nvSum, nvN := e.epochs, e.now, e.nvSum, e.nvN
	fitIterations, notConverged, retired := e.fitIterations, e.fitsNotConverged, e.retiredDrops
	e.mu.Unlock()
	w.Raw([]byte(snapshotMagic))
	w.Uvarint(snapshotVersion)
	w.Int(pos.Segment)
	w.Varint(pos.Offset)
	w.Uvarint(pos.Records)
	w.Int(epochs)

	w.Float64(now)
	w.Float64(nvSum)
	w.Int(nvN)
	w.Uvarint(fitIterations)
	w.Uvarint(notConverged)
	w.Uvarint(retired)
	w.Byte(byte(e.cfg.Source.Mode))
	if e.queue != nil {
		qs.Encode(w)
	}
	if e.cfg.Source.Mode != SourceExternal {
		e.handler.EncodeState(w)
	}
	e.fab.EncodeState(w)
	e.budgets.EncodeState(w)
	if e.adaptive != nil {
		e.adaptive.EncodeState(w)
	}
	return w.Close()
}

// captureQueue copies the ingest queue (nil for simulated sources), calling
// at under the queue's lock.
func (e *Engine) captureQueue(at func()) *ingest.QueueState {
	if e.queue == nil {
		at()
		return nil
	}
	qs := e.queue.Capture(at)
	return &qs
}

// restoreState loads a snapshot into a freshly built engine with the same
// configuration, then re-encodes the restored state and requires it to
// equal data byte for byte: a value the engine cannot hold exactly — or a
// snapshot this configuration did not write — fails here instead of
// diverging later.
func (e *Engine) restoreState(data []byte) error {
	rd, pos, epochs, err := readSnapshotHeader(data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.epochs = epochs
	e.now, e.nvSum, e.nvN = rd.Float64(), rd.Float64(), rd.Int()
	e.fitIterations, e.fitsNotConverged, e.retiredDrops = rd.Uvarint(), rd.Uvarint(), rd.Uvarint()
	e.mu.Unlock()
	if mode := SourceMode(rd.Byte()); mode != e.cfg.Source.Mode && rd.Err() == nil {
		return fmt.Errorf("%w: a %s-source snapshot for a %s-source session", codec.ErrCorrupt, mode, e.cfg.Source.Mode)
	}
	if e.queue != nil {
		e.queue.DecodeState(rd)
	}
	if e.cfg.Source.Mode != SourceExternal {
		e.handler.DecodeState(rd)
	}
	if rd.Err() != nil {
		return rd.Err()
	}
	results := e.fab.DecodeState(rd, e.cfg.Retention)
	e.budgets.DecodeState(rd)
	if e.adaptive != nil {
		e.adaptive.DecodeState(rd)
	}
	if rd.Err() != nil {
		return rd.Err()
	}
	if n := rd.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d bytes past the engine state", codec.ErrCorrupt, n)
	}
	e.mu.Lock()
	e.results = results
	e.mu.Unlock()
	if off, ok := e.matchState(pos, data); !ok {
		return fmt.Errorf("%w: the restored state re-encodes differently from byte %d", codec.ErrCorrupt, off)
	}
	return nil
}

// matchState encodes the engine's current state at WAL position pos and
// compares it with want, returning whether they are equal and, if not, the
// first differing byte offset. Nothing is buffered beyond the encoder's
// chunk.
func (e *Engine) matchState(pos wal.Position, want []byte) (int, bool) {
	m := &matchWriter{want: want, diff: -1}
	qs := e.captureQueue(func() {})
	if err := e.encodeState(codec.NewWriter(m), pos, qs); err != nil {
		return 0, false
	}
	if m.diff < 0 && m.off != len(want) {
		m.diff = min(m.off, len(want))
	}
	return m.diff, m.diff < 0
}

// matchWriter compares what is written to it with want.
type matchWriter struct {
	want []byte
	off  int
	diff int // first differing offset, −1 while equal
}

func (m *matchWriter) Write(p []byte) (int, error) {
	if m.diff < 0 {
		want := m.want[min(m.off, len(m.want)):min(m.off+len(p), len(m.want))]
		if len(want) < len(p) || !bytes.Equal(p, want) {
			i := 0
			for i < len(want) && p[i] == want[i] {
				i++
			}
			m.diff = m.off + i
		}
	}
	m.off += len(p)
	return len(p), nil
}

// readSnapshots returns the directory's snapshots whose checksum and header
// pass, newest first; a torn or corrupt file is skipped.
func readSnapshots(fsys wal.FS, dir string) (usable []*snapshotFile, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if _, ok := snapshotEpoch(ent.Name()); ok && !ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := fsys.ReadFile(path)
		if err != nil {
			continue
		}
		if _, pos, epochs, err := readSnapshotHeader(data); err == nil {
			usable = append(usable, &snapshotFile{path: path, epochs: epochs, pos: pos, data: data})
		}
	}
	return usable, nil
}
