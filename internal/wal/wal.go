// Package wal provides the per-session write-ahead log behind CrAQR's
// durable sessions: a segmented, CRC32-checksummed append log of the
// engine-state mutations (query submits/deletes, raw observation pushes,
// epoch closes) from which a crashed engine is rebuilt by deterministic
// replay (see DESIGN.md, "Durability and recovery").
//
// The on-disk format is a directory of fixed-prefix segment files
// ("wal-00000001.seg", …), each a sequence of frames:
//
//	[u32 payload length][u32 CRC32-IEEE of payload][payload]
//
// with every integer little-endian. A torn tail — a partial frame, a frame
// whose checksum fails, or any non-zero bytes after the last valid frame —
// marks the end of the usable log: Replay truncates it (and removes any later
// segments) instead of failing, so a crash mid-append never loses the prefix
// that was acked.
//
// Segments are zero-filled ahead of the writer, so that a commit's fsync
// flushes data and not the block allocations and size changes of a growing
// file. Once the current segment is half full, a background goroutine writes
// "wal-spare.tmp" — zeros to SegmentBytes, then fsync — and rotation trims
// the retired segment to its last frame, fsyncs it, and renames the spare to
// the next segment's name; a log with no spare ready creates the segment
// empty. Either way the directory is fsynced before the first record in the
// new segment can be committed. The last segment may therefore end in zeros:
// a zero length field followed only by zeros to the end of the file is the
// clean end of the log, not a torn tail, and appends resume there. Close
// stops the preparer, deletes the spare and trims the last segment; Open
// deletes a leftover spare (in the background) without reading it. No spare
// is made under FsyncNever.
//
// A Position names a point in the log (segment, byte offset, records before
// it). ReplayFrom starts at one — the suffix after a restored snapshot — and
// DeleteBefore drops whole segments behind one, which is how a session's
// disk use stays bounded; segment numbers keep counting up across deletions.
//
// Durability is policy-driven (FsyncAlways / FsyncBatch / FsyncNever).
// Under FsyncBatch, Commit is a group-commit barrier: the first committer
// fsyncs for everyone that appended before it, and committers arriving
// during an in-flight fsync coalesce onto the next one — one disk flush
// acks many concurrent producers. Open fsyncs the parent of each directory
// it creates, so a segment's path is durable before any record in it can be
// committed; FsyncNever skips every directory fsync too. Every file
// operation goes through Config.FS: the OS, unless a test interposes.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Policy selects when appended records become durable.
type Policy int

const (
	// FsyncBatch (the default) makes Commit a group-commit fsync barrier:
	// appends land in the OS page cache and the first committer flushes for
	// every record appended before it.
	FsyncBatch Policy = iota
	// FsyncAlways fsyncs on every Append, before it returns.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache; Commit is a no-op.
	// Crash recovery then replays only what the kernel wrote back.
	FsyncNever
)

// String renders the policy ("batch", "always", "never").
func (p Policy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses "batch", "always" or "never" (empty means batch).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want \"batch\", \"always\" or \"never\")", s)
	}
}

// File is an open file of the durable layer; *os.File satisfies it.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Sync() error
	Close() error
}

// FS is the one seam through which durable state touches the disk: the
// log's segments and spare, and a durable session's snapshots and manifest.
// Production uses OS; tests interpose on it to record the order of
// operations or to fail one.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Mkdir(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making the names created, renamed or
	// removed in it durable.
	SyncDir(name string) error
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) Mkdir(name string, perm os.FileMode) error  { return os.Mkdir(name, perm) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Config assembles a log.
type Config struct {
	// Dir is the segment directory; created if missing.
	Dir string
	// Fsync selects the durability policy (zero value: FsyncBatch).
	Fsync Policy
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size (0 = DefaultSegmentBytes), and is the size a spare segment
	// is zero-filled to. Rotation bounds single-file size; old segments stay
	// until DeleteBefore removes them.
	SegmentBytes int64
	// ReadOnly opens the log for Replay only: no truncation of torn tails,
	// no appending. The offline craqr-replay tool uses it to inspect a live
	// session's log without mutating it.
	ReadOnly bool
	// FS is the filesystem every file operation goes through (nil = OS).
	FS FS
}

const (
	// DefaultSegmentBytes is the rotation threshold when Config.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 8 << 20
	// MaxRecordBytes bounds one record's payload; a frame claiming more is
	// treated as corruption (a torn length field reads as garbage).
	MaxRecordBytes = 64 << 20

	frameHeaderSize = 8
	segPrefix       = "wal-"
	segSuffix       = ".seg"
	spareName       = "wal-spare.tmp"
)

// zeros is what spares are filled from and zero tails compared against.
var zeros [64 << 10]byte

// ErrClosed is returned by Append/Commit after Close when the requested
// records were not made durable before the log closed.
var ErrClosed = errors.New("wal: log closed")

// ErrReadOnly is returned by Append/Commit on a read-only log.
var ErrReadOnly = errors.New("wal: log is read-only")

// Stats is an observable snapshot of the log.
type Stats struct {
	Segments int   // live segment files
	Bytes    int64 // framed bytes across segments (a zero tail is not counted)
	// Records is the log position in records: every record ever appended,
	// including those in segments DeleteBefore removed.
	Records uint64
}

// Position is a point in the log: the segment number (the N of
// "wal-N.seg"), the byte offset within that segment, and how many records
// the whole log holds before it. The zero Position is the start of the log.
type Position struct {
	Segment int
	Offset  int64
	Records uint64
}

// ReplayReport describes what Replay found.
type ReplayReport struct {
	// Records is how many records the replay read (from its start position).
	Records int
	// Torn is set when a torn or corrupt frame ended the scan early; the log
	// was truncated at that point (unless read-only) so the next append
	// continues from the last valid record.
	Torn bool
	// TornOffset is the truncation point within the torn segment;
	// TruncatedBytes is how much was discarded (including any segments
	// after the torn one).
	TornOffset     int64
	TruncatedBytes int64
}

// Log is an append-only segmented record log. It is safe for concurrent
// Append/Commit from many goroutines; Replay must complete before the
// first Append.
type Log struct {
	cfg Config

	mu       sync.Mutex
	segs     []string // segment paths, oldest first
	f        File     // current segment, open for append (nil until Replay)
	segSize  int64    // framed bytes in the current segment: where the next frame goes
	total    int64    // framed bytes across all segments
	appended uint64   // the log position in records (see Stats.Records)
	synced   uint64   // records known durable
	closed   bool
	replayed bool
	// retired holds rotated-out segment files until a safe close point: a
	// group-commit leader may still be fsyncing one outside mu, so rotation
	// never closes eagerly (see Commit).
	retired []File
	scratch []byte
	// spare is the next segment being zero-filled, or filled and waiting for
	// rotation; nil when there is none.
	spare *spare
	// cleared is closed once Open's deletion of a leftover spare is done.
	cleared chan struct{}

	// syncMu serializes group-commit leaders (and final close) so a file is
	// never closed under an in-flight Sync. Lock order: syncMu before mu.
	syncMu sync.Mutex
}

// Open prepares a log over dir, creating the directory if needed. No
// records are read until Replay, which every caller must run (even on a
// fresh log) before appending.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.FS == nil {
		cfg.FS = OS
	}
	l := &Log{cfg: cfg, cleared: make(chan struct{})}
	if cfg.ReadOnly {
		close(l.cleared)
	} else {
		if _, err := l.mkdirs(cfg.Dir); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		// A spare left by a crash may be half written; it is never read.
		// Unlinking it can wait out the writeback of its pages, so that runs
		// beside Replay; a failure only means the first fill cannot create
		// its file, and the log rotates without a spare.
		go func() {
			defer close(l.cleared)
			cfg.FS.Remove(filepath.Join(cfg.Dir, spareName))
		}()
	}
	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		if cfg.ReadOnly && os.IsNotExist(err) {
			return l, nil // empty read-only log
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || len(name) <= len(segPrefix)+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || filepath.Ext(name) != segSuffix {
			continue
		}
		l.segs = append(l.segs, filepath.Join(cfg.Dir, name))
	}
	sort.Strings(l.segs)
	return l, nil
}

// Replay is ReplayFrom at the zero Position: every retained record, from
// the oldest segment. On a log whose older segments DeleteBefore removed
// (Compacted), record counts then start at the oldest retained segment.
func (l *Log) Replay(fn func(*Record) error) (ReplayReport, error) {
	return l.ReplayFrom(Position{}, fn)
}

// ReplayFrom decodes every record from position from onward and invokes fn
// on each in log order; the zero Position starts at the oldest segment. The
// *Record passed to fn — its Tuples included — is reused for the next
// record, so fn must copy whatever it keeps. A framing or checksum failure
// truncates the log there — the torn tail and any later segments are
// discarded (the suffix of an append-ordered log is exactly what a crash may
// lose) — and the scan ends without error; fn errors abort the scan and are
// returned. Zeros from the last frame to the end of the last segment are the
// clean end of the log and are kept. After ReplayFrom the log is positioned
// for Append, and Stats counts records from from.Records.
func (l *Log) ReplayFrom(from Position, fn func(*Record) error) (ReplayReport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayed {
		return ReplayReport{}, errors.New("wal: Replay called twice")
	}
	first := 0 // index into l.segs of the segment the scan starts in
	if from.Segment != 0 {
		if first = l.segIndex(from.Segment); first < 0 {
			return ReplayReport{}, fmt.Errorf("wal: segment %d is not in the log", from.Segment)
		}
	}
	for _, path := range l.segs[:first] {
		size, err := l.size(path)
		if err != nil {
			return ReplayReport{}, fmt.Errorf("wal: %w", err)
		}
		l.total += size
	}
	l.appended = from.Records
	var (
		rep     ReplayReport
		rec     Record
		buf     []byte // every segment is read into this one buffer
		tornAt  = -1   // index into l.segs of the segment holding the torn tail
		tornOff int64
		end     int64 // framed bytes in the last segment
	)
scan:
	for i := first; i < len(l.segs); i++ {
		base := int64(0) // data[0] is this byte of the segment
		if i == first {
			base = from.Offset
		}
		data, zeroTail, err := l.readSegment(l.segs[i], base, &buf)
		if err != nil {
			return rep, err
		}
		last := i == len(l.segs)-1
		off := int64(0)
		for int64(len(data))-off >= frameHeaderSize {
			n := binary.LittleEndian.Uint32(data[off:])
			sum := binary.LittleEndian.Uint32(data[off+4:])
			if n == 0 {
				break // a zero tail if only zeros follow (checked below)
			}
			if n > MaxRecordBytes || off+frameHeaderSize+int64(n) > int64(len(data)) {
				tornAt, tornOff = i, base+off
				break scan
			}
			payload := data[off+frameHeaderSize : off+frameHeaderSize+int64(n)]
			if crc32.ChecksumIEEE(payload) != sum {
				tornAt, tornOff = i, base+off
				break scan
			}
			if err := rec.decode(payload); err != nil {
				tornAt, tornOff = i, base+off
				break scan
			}
			if fn != nil {
				if err := fn(&rec); err != nil {
					return rep, err
				}
			}
			rep.Records++
			off += frameHeaderSize + int64(n)
			l.appended++
		}
		if off != int64(len(data)) && (!last || !allZero(data[off:])) || zeroTail && !last {
			tornAt, tornOff = i, base+off // trailing partial frame or leftovers
			break scan
		}
		l.total += base + off
		end = base + off
	}
	if tornAt >= 0 {
		rep.Torn = true
		rep.TornOffset = tornOff
		for i := tornAt; i < len(l.segs); i++ {
			if size, err := l.size(l.segs[i]); err == nil {
				if i == tornAt {
					size -= tornOff
				}
				rep.TruncatedBytes += size
			}
		}
		if !l.cfg.ReadOnly {
			if err := l.cfg.FS.Truncate(l.segs[tornAt], tornOff); err != nil {
				return rep, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			for _, path := range l.segs[tornAt+1:] {
				if err := l.cfg.FS.Remove(path); err != nil {
					return rep, fmt.Errorf("wal: removing segment past torn tail: %w", err)
				}
			}
			if tornAt+1 < len(l.segs) {
				if err := l.syncDir(l.cfg.Dir); err != nil {
					return rep, err
				}
			}
		}
		l.segs = l.segs[:tornAt+1]
		l.total += tornOff
		end = tornOff
	}
	l.synced = l.appended
	l.replayed = true
	if l.cfg.ReadOnly {
		return rep, nil
	}
	// Position for append: reopen the last segment (or create the first).
	if len(l.segs) == 0 {
		return rep, l.openSegmentLocked(1)
	}
	f, err := l.cfg.FS.OpenFile(l.segs[len(l.segs)-1], os.O_WRONLY, 0o644)
	if err != nil {
		return rep, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return rep, fmt.Errorf("wal: %w", err)
	}
	l.f, l.segSize = f, end
	return rep, nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for len(b) > len(zeros) {
		if !bytes.Equal(b[:len(zeros)], zeros[:]) {
			return false
		}
		b = b[len(zeros):]
	}
	return bytes.Equal(b, zeros[:len(b)])
}

// readSegment reads a segment file from byte from into *buf, growing it as
// needed, and returns the filled part. Frames followed only by zeros to the
// end of the file — a zero tail — end the read there, and zeroTail is set:
// the zeros are checked through a small window instead of being read into
// *buf. Any other bytes after the frames are read for Replay to judge.
func (l *Log) readSegment(path string, from int64, buf *[]byte) (data []byte, zeroTail bool, err error) {
	f, err := l.cfg.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, false, fmt.Errorf("wal: %w", err)
	}
	if from > end {
		return nil, false, fmt.Errorf("wal: position %d is past the end of %s (%d bytes)", from, filepath.Base(path), end)
	}
	n := int(end - from)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	next := 0 // the next frame header in data; −1 once the hops stop
	for len(data) < n {
		k, err := f.ReadAt((*buf)[len(data):min(n, len(data)+1<<20)], from+int64(len(data)))
		data = (*buf)[:len(data)+k]
		if errors.Is(err, io.EOF) {
			n = len(data) // trimmed since the Stat: a read-only log read beside its writer
		} else if err != nil {
			return nil, false, fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		for next >= 0 && next+frameHeaderSize <= len(data) {
			if size := binary.LittleEndian.Uint32(data[next:]); size != 0 {
				next += frameHeaderSize + int(size)
				continue
			}
			if allZero(data[next:]) && zeroFrom(f, from+int64(len(data)), end) {
				return data[:next], true, nil
			}
			next = -1
		}
	}
	return data, false, nil
}

// zeroFrom reports whether f holds only zeros from off to end (or to an
// earlier end of file).
func zeroFrom(f io.ReaderAt, off, end int64) bool {
	win := make([]byte, len(zeros))
	for off < end {
		k, err := f.ReadAt(win[:min(end-off, int64(len(win)))], off)
		switch {
		case !allZero(win[:k]):
			return false
		case err != nil:
			return errors.Is(err, io.EOF)
		}
		off += int64(k)
	}
	return true
}

// segNumber parses the N of a "wal-N.seg" path (0 if it does not parse).
func segNumber(path string) int {
	name := filepath.Base(path)
	n, _ := strconv.Atoi(name[len(segPrefix) : len(name)-len(segSuffix)])
	return n
}

// segIndex returns the index into l.segs of segment number n, or −1.
func (l *Log) segIndex(n int) int {
	for i, path := range l.segs {
		if segNumber(path) == n {
			return i
		}
	}
	return -1
}

// Reaches reports whether the log holds every byte before pos: its segment
// is present, at least pos.Offset long, and has no zero tail starting before
// pos.Offset. Recovery uses it before ReplayFrom to refuse a snapshot that
// claims records the log no longer has.
func (l *Log) Reaches(pos Position) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.segIndex(pos.Segment)
	if i < 0 {
		return false
	}
	f, err := l.cfg.FS.OpenFile(l.segs[i], os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	if size, err := f.Seek(0, io.SeekEnd); err != nil || size < pos.Offset {
		return false
	}
	// A zero tail runs to the end of the file, so a position at the end or
	// followed by a non-zero byte is not in one; only a position followed
	// by zeros needs the walk.
	var next [frameHeaderSize]byte
	n, _ := f.ReadAt(next[:], pos.Offset)
	return n == 0 || !allZero(next[:n]) || !zeroBefore(f, pos.Offset)
}

// zeroBefore hops along a segment's frame headers from its start and reports
// whether a zero length field — the start of a zero tail — comes before
// off. It reads one small window per hop, never the payloads; a header that
// does not parse ends the walk with false, leaving the bytes to Replay.
func zeroBefore(f io.ReaderAt, off int64) bool {
	var win [4 << 10]byte
	base, n := int64(0), 0 // win[:n] holds the segment's bytes from base
	for at := int64(0); at < off; {
		if at+frameHeaderSize > base+int64(n) {
			base = at
			if n, _ = f.ReadAt(win[:], at); n < frameHeaderSize {
				return false
			}
		}
		size := binary.LittleEndian.Uint32(win[at-base:])
		if size == 0 {
			return true
		}
		at += frameHeaderSize + int64(size)
	}
	return false
}

// Compacted reports whether DeleteBefore has removed the log's first
// segments, so that a replay from the zero Position cannot rebuild the
// session.
func (l *Log) Compacted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) > 0 && segNumber(l.segs[0]) > 1
}

// Position returns where the next record will be appended: the current
// segment, its size, and the record count. Callers that need it exact
// against concurrent appends serialize with the appenders themselves.
func (l *Log) Position() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := Position{Offset: l.segSize, Records: l.appended}
	if len(l.segs) > 0 {
		p.Segment = segNumber(l.segs[len(l.segs)-1])
	}
	return p
}

// DeleteBefore removes every whole segment numbered below segment — never
// the current one — and returns how many it removed. Their records are gone
// for good, so a caller deletes only behind a durable snapshot that no
// longer needs them.
func (l *Log) DeleteBefore(segment int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.ReadOnly {
		return 0, ErrReadOnly
	}
	n := 0
	for ; n < len(l.segs)-1 && segNumber(l.segs[n]) < segment; n++ {
		size, err := l.size(l.segs[n])
		if err == nil {
			err = l.cfg.FS.Remove(l.segs[n])
		}
		if err != nil {
			l.segs = l.segs[n:]
			return n, fmt.Errorf("wal: deleting segment: %w", err)
		}
		l.total -= size
	}
	l.segs = append(l.segs[:0:0], l.segs[n:]...)
	return n, nil
}

// openSegmentLocked makes segment n current — the spare renamed, when one
// is ready, else a new empty file — and fsyncs the directory so the
// segment's name survives a crash before any record in it is committed;
// l.mu held.
func (l *Log) openSegmentLocked(n int) error {
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix))
	f, err := l.takeSpareLocked(path)
	if err == nil && f == nil {
		f, err = l.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(l.cfg.Dir); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, path)
	l.f = f
	l.segSize = 0
	return nil
}

// spare is a segment file being zero-filled ahead of the writer.
type spare struct {
	done chan struct{} // closed when the fill has ended
	err  error         // the fill's outcome, read after done
	stop atomic.Bool   // set by Close: abandon the fill
}

// prepareSpareLocked starts zero-filling the next segment once the current
// one is half full, unless a spare exists already; l.mu held.
func (l *Log) prepareSpareLocked() {
	if l.spare != nil || l.cfg.Fsync == FsyncNever || l.segSize < l.cfg.SegmentBytes/2 {
		return
	}
	s := &spare{done: make(chan struct{})}
	l.spare = s
	path, size := filepath.Join(l.cfg.Dir, spareName), l.cfg.SegmentBytes
	go func() {
		defer close(s.done)
		<-l.cleared
		s.err = s.fill(l.cfg.FS, path, size)
	}()
}

// fill writes size zero bytes to a new file at path and fsyncs it; on any
// failure, or when stopped, it removes what it wrote.
func (s *spare) fill(fsys FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	for left := size; left > 0 && err == nil; left -= int64(len(zeros)) {
		if s.stop.Load() {
			err = ErrClosed
			break
		}
		_, err = f.Write(zeros[:min(left, int64(len(zeros)))])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(path)
	}
	return err
}

// takeSpareLocked renames a filled spare to path and opens it for writing;
// a nil file means no spare was ready (one still filling stays for the next
// rotation). l.mu held.
func (l *Log) takeSpareLocked(path string) (File, error) {
	s := l.spare
	if s == nil {
		return nil, nil
	}
	select {
	case <-s.done:
	default:
		return nil, nil
	}
	l.spare = nil
	if s.err != nil || l.cfg.FS.Rename(filepath.Join(l.cfg.Dir, spareName), path) != nil {
		return nil, nil
	}
	return l.cfg.FS.OpenFile(path, os.O_WRONLY, 0o644)
}

// trimLocked cuts the current segment's file back to its last frame,
// dropping the zero tail a preallocated segment still has; l.mu held. It
// only shrinks: under fault injection the file can be shorter than its
// frames.
func (l *Log) trimLocked() error {
	path := l.segs[len(l.segs)-1]
	size, err := l.size(path)
	if err == nil && size > l.segSize {
		err = l.cfg.FS.Truncate(path, l.segSize)
	}
	if err != nil {
		return fmt.Errorf("wal: trimming segment: %w", err)
	}
	return nil
}

// size returns the length of the file at path.
func (l *Log) size(path string) (int64, error) {
	f, err := l.cfg.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Seek(0, io.SeekEnd)
}

// syncDir fsyncs dir, making the names created, renamed or removed in it
// durable, unless the policy is FsyncNever.
func (l *Log) syncDir(dir string) error {
	if l.cfg.Fsync == FsyncNever {
		return nil
	}
	if err := l.cfg.FS.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: fsync of directory: %w", err)
	}
	return nil
}

// mkdirs creates dir and whatever parents it lacks, and fsyncs the parent of
// each directory it creates, so no segment's path can vanish in a power cut
// once a record in it is committed. Below a parent it did not create itself
// it fsyncs that parent's own parent too: a concurrent Open (two sessions
// making sessions/) may have created the parent an instant ago and not yet
// fsynced its entry. It reports whether it created dir.
func (l *Log) mkdirs(dir string) (bool, error) {
	parent := filepath.Dir(dir)
	err := l.cfg.FS.Mkdir(dir, 0o755)
	madeParent := false
	if errors.Is(err, os.ErrNotExist) && parent != dir {
		if madeParent, err = l.mkdirs(parent); err == nil {
			err = l.cfg.FS.Mkdir(dir, 0o755)
		}
	}
	switch {
	case errors.Is(err, os.ErrExist):
		return false, nil
	case err != nil:
		return false, err
	}
	if err := l.syncDir(parent); err != nil {
		return true, err
	}
	if up := filepath.Dir(parent); !madeParent && up != parent {
		return true, l.syncDir(up)
	}
	return true, nil
}

// Append encodes rec into one checksummed frame and writes it to the
// current segment, rotating first when the segment is full. Records that
// cannot be framed (Record.Check) fail with ErrRecordTooLarge before
// anything is written. Under FsyncAlways the record is durable when Append
// returns; otherwise durability is deferred to Commit (FsyncBatch) or the
// OS (FsyncNever).
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.cfg.ReadOnly {
		return ErrReadOnly
	}
	if !l.replayed {
		return errors.New("wal: Append before Replay")
	}
	if err := rec.Check(); err != nil {
		// Rejected before any byte is written: an oversize string would
		// truncate its uint16 length prefix and an oversize payload would
		// read as corruption on replay — either way a frame whose CRC passes
		// but whose payload lies, silently truncating every later record.
		return err
	}
	if l.segSize >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// Encode the frame in place: header placeholder, payload appended after.
	frame := append(l.scratch[:0], make([]byte, frameHeaderSize)...)
	frame = rec.encode(frame)
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	l.scratch = frame
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += int64(len(frame))
	l.total += int64(len(frame))
	l.appended++
	l.prepareSpareLocked()
	if l.cfg.Fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.synced = l.appended
	}
	return nil
}

// rotateLocked trims, syncs and retires the current segment and opens the
// next; l.mu held. The trim is durable before the next segment exists, so
// only the last segment can end in zeros. The retired file stays open until
// a group-commit leader or Close reaps it — an in-flight Sync elsewhere must
// never see it closed.
func (l *Log) rotateLocked() error {
	if err := l.trimLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	l.synced = l.appended
	l.retired = append(l.retired, l.f)
	return l.openSegmentLocked(segNumber(l.segs[len(l.segs)-1]) + 1)
}

// Commit is the durability barrier producers ack behind: it returns once
// every record appended before the call is durable under the configured
// policy. Under FsyncBatch concurrent committers coalesce onto one fsync;
// under FsyncAlways appends are already durable and under FsyncNever
// Commit asserts nothing. Commit after Close succeeds only if the final
// flush covered the caller's records.
func (l *Log) Commit() error {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	for {
		l.mu.Lock()
		switch {
		case l.synced >= target:
			l.mu.Unlock()
			return nil
		case l.closed:
			l.mu.Unlock()
			return ErrClosed
		case l.cfg.ReadOnly:
			l.mu.Unlock()
			return ErrReadOnly
		case l.cfg.Fsync == FsyncNever:
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()

		l.syncMu.Lock()
		l.mu.Lock()
		if l.synced >= target || l.closed {
			l.mu.Unlock()
			l.syncMu.Unlock()
			continue // resolved while waiting for the leader slot
		}
		f := l.f
		covers := l.appended
		retired := l.retired
		l.retired = nil
		l.mu.Unlock()
		// Reap rotated-out segments: the leader slot guarantees no Sync is
		// in flight on them, and rotation already made them durable.
		for _, rf := range retired {
			rf.Close()
		}
		err := f.Sync()
		l.mu.Lock()
		if err == nil && l.synced < covers {
			l.synced = covers
		}
		l.mu.Unlock()
		l.syncMu.Unlock()
		if err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
}

// Close flushes and closes the log, stops and deletes the spare, and trims
// the last segment to its last frame. Committers still waiting on records
// the final flush covered succeed; anything appended after Close fails
// with ErrClosed. Closing twice is a no-op.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	f := l.f
	covers := l.appended
	l.mu.Unlock()
	var err error
	if f != nil {
		err = f.Sync()
	}
	l.mu.Lock()
	if err == nil {
		l.synced = covers
	}
	l.closed = true
	retired := l.retired
	l.retired = nil
	if f != nil {
		// Appends that raced the flush keep their frames; only zeros go.
		if terr := l.trimLocked(); err == nil {
			err = terr
		}
	}
	l.f = nil
	s := l.spare
	l.spare = nil
	l.mu.Unlock()
	if s != nil {
		s.stop.Store(true)
		<-s.done
		if rerr := l.cfg.FS.Remove(filepath.Join(l.cfg.Dir, spareName)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
			err = rerr
		}
	}
	<-l.cleared
	for _, rf := range retired {
		rf.Close()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Stats snapshots segment count, total bytes and record count.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Segments: len(l.segs), Bytes: l.total, Records: l.appended}
}
