package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stream"
)

func openForAppend(t *testing.T, dir string, cfg Config) (*Log, ReplayReport, []Record) {
	t.Helper()
	cfg.Dir = dir
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var got []Record
	rep, err := l.Replay(func(r *Record) error {
		cp := *r
		cp.Tuples = append([]stream.Tuple(nil), r.Tuples...)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return l, rep, got
}

func sampleRecords() []Record {
	return []Record{
		{Type: TypeSubmit, QueryID: "Q1", Attr: "rain", Rect: [4]float64{0, 0, 4, 4}, Rate: 3.5},
		{Type: TypePush, Watermark: math.NaN(), Tuples: []stream.Tuple{
			{ID: 7, Attr: "rain", T: 0.25, X: 1, Y: 2, Value: 0.9, Sensor: -1},
			{ID: 0, Attr: "temp", T: 0.5, X: 3, Y: 3.5, Value: 21.25, Sensor: 4},
		}},
		{Type: TypePush, Watermark: 2.5},
		{Type: TypeEpoch, T1: 1, Epoch: 1},
		{Type: TypeDelete, QueryID: "Q1"},
	}
}

func recordsEqual(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		// NaN-aware comparison for the watermark field.
		wWM, gWM := w.Watermark, g.Watermark
		w.Watermark, g.Watermark = 0, 0
		if math.IsNaN(wWM) != math.IsNaN(gWM) || (!math.IsNaN(wWM) && wWM != gWM) {
			t.Fatalf("record %d watermark: got %v want %v", i, gWM, wWM)
		}
		wT, gT := w.Tuples, g.Tuples
		w.Tuples, g.Tuples = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		if len(wT) != len(gT) {
			t.Fatalf("record %d: got %d tuples want %d", i, len(gT), len(wT))
		}
		for j := range wT {
			if wT[j] != gT[j] {
				t.Fatalf("record %d tuple %d: got %+v want %+v", i, j, gT[j], wT[j])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rep, got := openForAppend(t, dir, Config{})
	defer l2.Close()
	if rep.Torn {
		t.Fatalf("unexpected torn report: %+v", rep)
	}
	recordsEqual(t, want, got)
	if st := l2.Stats(); st.Records != uint64(len(want)) {
		t.Fatalf("Stats.Records = %d, want %d", st.Records, len(want))
	}
}

// TestSubmitMergeModeSlot pins the submit record's bytes: a payload ends
// in a string slot where older engines wrote a merge mode ("hier" below).
// Such logs must still replay, and new records leave the slot empty.
func TestSubmitMergeModeSlot(t *testing.T) {
	const (
		older = "010200513104007261696e00000000000000000000000000000000000000000000104000000000000010400000000000000c40040068696572"
		empty = "010200513104007261696e00000000000000000000000000000000000000000000104000000000000010400000000000000c400000"
	)
	want := sampleRecords()[0]
	payload, err := hex.DecodeString(older)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := got.decode(payload); err != nil {
		t.Fatalf("decoding a submit record with a merge mode: %v", err)
	}
	recordsEqual(t, []Record{want}, []Record{got})
	if enc := hex.EncodeToString(want.encode(nil)); enc != empty {
		t.Fatalf("submit record encodes as %s, want %s", enc, empty)
	}
	if err := want.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: 256})
	var want []Record
	for i := 0; i < 64; i++ {
		rec := Record{Type: TypeEpoch, T1: float64(i + 1), Epoch: uint64(i + 1)}
		want = append(want, rec)
		if err := l.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rep, got := openForAppend(t, dir, Config{SegmentBytes: 256})
	defer l2.Close()
	if rep.Torn {
		t.Fatalf("unexpected torn report: %+v", rep)
	}
	recordsEqual(t, want, got)
	// Appending after recovery continues in the last segment.
	if err := l2.Append(&Record{Type: TypeEpoch, T1: 65, Epoch: 65}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
}

// appendEpochs appends n epoch records numbered from first, returning the
// log's position before each one.
func appendEpochs(t *testing.T, l *Log, first, n int) ([]Record, []Position) {
	t.Helper()
	var recs []Record
	var at []Position
	for i := first; i < first+n; i++ {
		at = append(at, l.Position())
		rec := Record{Type: TypeEpoch, T1: float64(i), Epoch: uint64(i)}
		if err := l.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs, at
}

// TestReplayFromPosition: a replay started at any position a writer read
// between appends yields exactly the records appended after it — across
// segment boundaries — and leaves the log counting records absolutely.
func TestReplayFromPosition(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SegmentBytes: 128}
	l, _, _ := openForAppend(t, dir, cfg)
	recs, at := appendEpochs(t, l, 1, 40)
	if l.Stats().Segments < 4 {
		t.Fatalf("want several segments, got %d", l.Stats().Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 7, 8, 23, 39} {
		cfg.Dir = dir
		l2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !l2.Reaches(at[k]) {
			t.Fatalf("log does not reach position %+v", at[k])
		}
		var got []Record
		rep, err := l2.ReplayFrom(at[k], func(r *Record) error {
			got = append(got, *r)
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayFrom(%+v): %v", at[k], err)
		}
		recordsEqual(t, recs[k:], got)
		if rep.Records != len(recs)-k || l2.Stats().Records != uint64(len(recs)) {
			t.Fatalf("from record %d: replayed %d, log at %d", k, rep.Records, l2.Stats().Records)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteBeforeCompacts: deleting the segments before a position frees
// their bytes, keeps the current segment, and leaves a log that replays
// from that position, appends under fresh segment numbers and refuses
// positions it no longer reaches.
func TestDeleteBeforeCompacts(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SegmentBytes: 128}
	l, _, _ := openForAppend(t, dir, cfg)
	recs, at := appendEpochs(t, l, 1, 40)
	keep := at[25]
	before := l.Stats()
	n, err := l.DeleteBefore(keep.Segment)
	if err != nil || n != keep.Segment-1 {
		t.Fatalf("DeleteBefore(%d) = %d, %v", keep.Segment, n, err)
	}
	after := l.Stats()
	if !l.Compacted() || after.Segments != before.Segments-n || after.Bytes >= before.Bytes || after.Records != before.Records {
		t.Fatalf("after deleting %d segments: %+v, before %+v", n, after, before)
	}
	more, _ := appendEpochs(t, l, 41, 20)
	recs = append(recs, more...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	l2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Reaches(at[0]) || !l2.Reaches(keep) {
		t.Fatal("Reaches disagrees with what was deleted")
	}
	var got []Record
	if _, err := l2.ReplayFrom(keep, func(r *Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, recs[25:], got)
	if st := l2.Stats(); st.Records != uint64(len(recs)) || st.Bytes != sumSegmentBytes(t, dir) {
		t.Fatalf("reopened compacted log: %+v (on disk %d bytes)", st, sumSegmentBytes(t, dir))
	}
	// The last segment is never deleted, whatever the position.
	if _, err := l2.DeleteBefore(1 << 30); err != nil || l2.Stats().Segments != 1 {
		t.Fatalf("DeleteBefore past the end: %v, %d segments left", err, l2.Stats().Segments)
	}
}

func sumSegmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	var n int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 99, 99}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, rep, got := openForAppend(t, dir, Config{})
	if !rep.Torn || rep.TruncatedBytes != 6 {
		t.Fatalf("report = %+v, want torn with 6 truncated bytes", rep)
	}
	recordsEqual(t, want, got)
	// The torn bytes are gone: appending and re-replaying yields a clean log.
	if err := l2.Append(&Record{Type: TypeEpoch, T1: 9, Epoch: 9}); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3, rep3, got3 := openForAppend(t, dir, Config{})
	defer l3.Close()
	if rep3.Torn || len(got3) != len(want)+1 {
		t.Fatalf("after repair: report %+v, %d records", rep3, len(got3))
	}
}

func TestBadCRCTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the last record (offset -1 is inside it).
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, got := openForAppend(t, dir, Config{})
	defer l2.Close()
	if !rep.Torn {
		t.Fatalf("corrupted record did not report torn: %+v", rep)
	}
	recordsEqual(t, want[:len(want)-1], got)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != rep.TornOffset {
		t.Fatalf("segment not truncated: size %d, torn offset %d", info.Size(), rep.TornOffset)
	}
}

func TestCorruptionMidLogDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: 128})
	var want []Record
	for i := 0; i < 32; i++ {
		rec := Record{Type: TypeEpoch, T1: float64(i + 1), Epoch: uint64(i + 1)}
		want = append(want, rec)
		if err := l.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Corrupt the first record of the second segment.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, got := openForAppend(t, dir, Config{SegmentBytes: 128})
	defer l2.Close()
	if !rep.Torn {
		t.Fatal("expected torn report")
	}
	recordsEqual(t, want[:len(got)], got)
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(after) != 2 {
		t.Fatalf("segments past the corruption not removed: %v", after)
	}
}

func TestReadOnlyDoesNotTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	rec := Record{Type: TypeEpoch, T1: 1, Epoch: 1}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, _ := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3})
	f.Close()
	before, _ := os.Stat(seg)
	ro, err := Open(Config{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ro.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.Records != 1 {
		t.Fatalf("read-only replay report: %+v", rep)
	}
	after, _ := os.Stat(seg)
	if before.Size() != after.Size() {
		t.Fatal("read-only replay truncated the segment")
	}
	if err := ro.Append(&rec); err != ErrReadOnly {
		t.Fatalf("Append on read-only log: %v", err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{Fsync: FsyncBatch, SegmentBytes: 4 << 10})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := Record{Type: TypeEpoch, T1: float64(i), Epoch: uint64(i + 1)}
			if err := l.Append(&rec); err != nil {
				errs <- err
				return
			}
			errs <- l.Commit()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("append/commit: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rep, got := openForAppend(t, dir, Config{})
	defer l2.Close()
	if rep.Torn || len(got) != n {
		t.Fatalf("replay: torn=%v records=%d want %d", rep.Torn, len(got), n)
	}
}

func TestCommitAfterCloseCoversFlushedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{Fsync: FsyncBatch})
	rec := Record{Type: TypeEpoch, T1: 1, Epoch: 1}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The final flush covered the append: the ack barrier must succeed even
	// though the log is closed (shutdown ordering satellite).
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit after Close: %v", err)
	}
	if err := l.Append(&rec); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"", FsyncBatch}, {"batch", FsyncBatch}, {"always", FsyncAlways}, {"never", FsyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

// TestAppendRejectsOversizeRecords: a record the framing cannot represent
// — a string over MaxStringLen (its uint16 length prefix would truncate)
// or a payload past MaxRecordBytes — must fail with ErrRecordTooLarge
// before any byte is written. A silently truncated length prefix would
// produce a frame whose CRC passes but whose payload lies, making replay
// drop it as a torn tail along with every later acked record.
func TestAppendRejectsOversizeRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{Fsync: FsyncAlways})
	bigAttr := string(make([]byte, MaxStringLen+1))
	oversize := []Record{
		{Type: TypePush, Watermark: math.NaN(), Tuples: []stream.Tuple{{ID: 1, Attr: bigAttr, T: 0.5}}},
		{Type: TypeSubmit, QueryID: "Q1", Attr: bigAttr},
		{Type: TypeDelete, QueryID: bigAttr},
		{Type: TypePush, Watermark: math.NaN(), Tuples: make([]stream.Tuple, MaxRecordBytes/(8+2+4*8+8)+1)},
	}
	good := Record{Type: TypeEpoch, T1: 1, Epoch: 1}
	if err := l.Append(&good); err != nil {
		t.Fatal(err)
	}
	for i := range oversize {
		if err := l.Append(&oversize[i]); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("oversize record %d: err = %v, want ErrRecordTooLarge", i, err)
		}
	}
	// The log is not poisoned: later appends land, and replay sees exactly
	// the two good records with nothing truncated.
	good2 := Record{Type: TypeEpoch, T1: 2, Epoch: 2}
	if err := l.Append(&good2); err != nil {
		t.Fatalf("append after oversize rejection: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, got := openForAppend(t, dir, Config{})
	if rep.Torn {
		t.Fatalf("replay reports torn tail: %+v", rep)
	}
	recordsEqual(t, []Record{good, good2}, got)
}

// --- preallocated segments ------------------------------------------------

// spareSegBytes is small enough that a few dozen epoch records fill a
// segment, so a test rotates onto a zero-filled spare quickly.
const spareSegBytes = 1 << 10

// waitSpare blocks until the log's spare, if it has one, is filled.
func waitSpare(l *Log) {
	l.mu.Lock()
	s := l.spare
	l.mu.Unlock()
	if s != nil {
		<-s.done
	}
}

// appendOntoSpare appends epoch records numbered from first until the log
// has rotated onto a new segment and holds k records there, waiting for the
// spare before each rotation so the new segment is a preallocated one. It
// returns the records and leaves no fill running.
func appendOntoSpare(t *testing.T, l *Log, first, k int) []Record {
	t.Helper()
	start := l.Position().Segment
	var recs []Record
	for i, inNew := first, 0; inNew < k; i++ {
		if l.Position().Offset >= l.cfg.SegmentBytes {
			waitSpare(l)
		}
		rec := Record{Type: TypeEpoch, T1: float64(i), Epoch: uint64(i)}
		if err := l.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		recs = append(recs, rec)
		if l.Position().Segment > start {
			inNew++
		}
	}
	waitSpare(l)
	return recs
}

// segPath names segment n of the log in dir.
func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", n))
}

// abandonOnSpare writes a log of segBytes segments in dir that has rotated
// onto a spare and then is abandoned without Close, as a kill leaves it: the
// last segment is segBytes long and zero past its last frame. It returns
// the records and where the last frame ends.
func abandonOnSpare(t *testing.T, dir string, segBytes int64) ([]Record, Position) {
	t.Helper()
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: segBytes})
	recs := appendOntoSpare(t, l, 1, 5)
	end := l.Position()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(segPath(dir, end.Segment))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != segBytes || end.Offset >= segBytes {
		t.Fatalf("segment %d is %d bytes with frames to %d: not a preallocated spare", end.Segment, info.Size(), end.Offset)
	}
	return recs, end
}

// TestAbandonedZeroTailIsCleanEnd: a log killed on a preallocated segment
// replays every record without a torn report, keeps the preallocation, and
// appends from its last frame on.
func TestAbandonedZeroTailIsCleanEnd(t *testing.T) {
	dir := t.TempDir()
	recs, end := abandonOnSpare(t, dir, spareSegBytes)
	cfg := Config{SegmentBytes: spareSegBytes}
	l, rep, got := openForAppend(t, dir, cfg)
	if rep.Torn {
		t.Fatalf("a zero tail replayed as torn: %+v", rep)
	}
	recordsEqual(t, recs, got)
	if pos := l.Position(); pos != end {
		t.Fatalf("replay positioned the log at %+v, the last frame ends at %+v", pos, end)
	}
	if info, _ := os.Stat(segPath(dir, end.Segment)); info.Size() != spareSegBytes {
		t.Fatalf("replay did not keep the preallocation: %d bytes", info.Size())
	}
	if st := l.Stats(); st.Bytes != sumSegmentBytes(t, dir)-(spareSegBytes-end.Offset) {
		t.Fatalf("Stats.Bytes = %d counts the zero tail", st.Bytes)
	}
	if !l.Reaches(end) || l.Reaches(Position{Segment: end.Segment, Offset: end.Offset + 100}) {
		t.Fatal("Reaches reads the zero tail as records")
	}
	more := Record{Type: TypeEpoch, T1: 100, Epoch: 100}
	if err := l.Append(&more); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rep2, got2 := openForAppend(t, dir, cfg)
	defer l2.Close()
	if rep2.Torn {
		t.Fatalf("torn after appending past a zero tail: %+v", rep2)
	}
	recordsEqual(t, append(recs, more), got2)
}

// TestZeroTailLeftoversAreTorn: after the last frame of a preallocated
// segment, a partial frame followed by zeros, and a zero length field
// followed by non-zero bytes — near the frames or past the first megabyte
// Replay reads — are torn tails; the repair truncates them, so no stale
// byte can follow a later append.
func TestZeroTailLeftoversAreTorn(t *testing.T) {
	for _, tc := range []struct {
		name     string
		segBytes int64
		at       int64 // bytes past the last frame
		junk     []byte
	}{
		{"partial frame", spareSegBytes, 0, []byte{100, 0, 0, 0, 7, 7, 7, 7, 1, 2, 3}},
		{"zero header then bytes", spareSegBytes, 40, []byte{0xde, 0xad}},
		{"bytes deep in the tail", 2 << 20, 3 << 19, []byte{0xde, 0xad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			recs, end := abandonOnSpare(t, dir, tc.segBytes)
			seg := segPath(dir, end.Segment)
			f, err := os.OpenFile(seg, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(tc.junk, end.Offset+tc.at); err != nil {
				t.Fatal(err)
			}
			f.Close()
			cfg := Config{SegmentBytes: tc.segBytes}
			l, rep, got := openForAppend(t, dir, cfg)
			if !rep.Torn || rep.TornOffset != end.Offset || rep.TruncatedBytes != tc.segBytes-end.Offset {
				t.Fatalf("report = %+v, want torn at %d", rep, end.Offset)
			}
			recordsEqual(t, recs, got)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != end.Offset {
				t.Fatalf("repaired segment is %d bytes, want %d", len(data), end.Offset)
			}
			more := Record{Type: TypeEpoch, T1: 100, Epoch: 100}
			if err := l.Append(&more); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rep2, got2 := openForAppend(t, dir, cfg)
			defer l2.Close()
			if rep2.Torn {
				t.Fatalf("torn after the repair: %+v", rep2)
			}
			recordsEqual(t, append(recs, more), got2)
		})
	}
}

// TestLeftoverSpareNeverReplayed: a spare half written when the process
// died — here holding frames that would replay — is deleted by Open (in the
// background) and none of its bytes reach Replay.
func TestLeftoverSpareNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	spare := filepath.Join(dir, spareName)
	if err := os.WriteFile(spare, append(data, make([]byte, 100)...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, got := openForAppend(t, dir, Config{})
	defer l2.Close()
	<-l2.cleared
	if _, err := os.Stat(spare); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open left the spare: %v", err)
	}
	if rep.Torn || l2.Stats().Segments != 1 {
		t.Fatalf("report %+v, %d segments", rep, l2.Stats().Segments)
	}
	recordsEqual(t, want, got)
}

// TestCloseLeavesTrimmedSegments: after Close the directory holds only
// segment files, each ending exactly at its last frame, and Stats.Bytes is
// their size.
func TestCloseLeavesTrimmedSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{SegmentBytes: spareSegBytes})
	recs := appendOntoSpare(t, l, 1, 3)
	recs = append(recs, appendOntoSpare(t, l, len(recs)+1, 3)...)
	// Leave a filled spare for Close to delete.
	for l.Position().Offset < spareSegBytes/2 {
		rec := Record{Type: TypeEpoch, T1: float64(len(recs) + 1), Epoch: uint64(len(recs) + 1)}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	waitSpare(l)
	if _, err := os.Stat(filepath.Join(dir, spareName)); err != nil {
		t.Fatalf("no spare before Close: %v", err)
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Segments {
		t.Fatalf("after Close the directory holds %d entries for %d segments", len(entries), st.Segments)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != segSuffix {
			t.Fatalf("Close left %s", ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for off+frameHeaderSize <= len(data) {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if n == 0 {
				break
			}
			off += frameHeaderSize + n
		}
		if off != len(data) {
			t.Fatalf("%s: frames end at %d of %d bytes", ent.Name(), off, len(data))
		}
	}
	if sum := sumSegmentBytes(t, dir); sum != st.Bytes {
		t.Fatalf("segments hold %d bytes, Stats.Bytes said %d", sum, st.Bytes)
	}
	l2, rep, got := openForAppend(t, dir, Config{SegmentBytes: spareSegBytes})
	defer l2.Close()
	if rep.Torn {
		t.Fatalf("torn after Close: %+v", rep)
	}
	recordsEqual(t, recs, got)
}

// TestCloseStopsFill: Close stops a fill in flight and returns only once it
// has ended, with no spare left behind.
func TestCloseStopsFill(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openForAppend(t, dir, Config{})
	half := Record{Type: TypePush, Tuples: make([]stream.Tuple, DefaultSegmentBytes/2/50+1)} // 50 bytes a tuple
	if err := l.Append(&half); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	s := l.spare
	l.mu.Unlock()
	if s == nil {
		t.Fatal("no fill started at half a segment")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("the fill outlived Close")
	}
	if _, err := os.Stat(filepath.Join(dir, spareName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close left the spare: %v", err)
	}
}
