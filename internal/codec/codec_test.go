package codec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestRoundTrip writes one of every field kind — a string long enough to
// span the writer's chunks included — and reads them back exactly.
func TestRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 3*bufSize/2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Byte(7)
	w.Bool(true)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Int(-3)
	w.Uint64(1 << 63)
	w.Float64(math.Inf(-1))
	w.Float64(math.Copysign(0, -1))
	w.String(long)
	w.String("\x01\x02")
	w.Raw([]byte("raw"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Byte() != 7 || !r.Bool() || r.Uvarint() != math.MaxUint64 || r.Varint() != math.MinInt64 || r.Int() != -3 || r.Uint64() != 1<<63 {
		t.Fatal("integers did not round-trip")
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Fatalf("−Inf read back as %v", v)
	}
	if v := r.Float64(); v != 0 || !math.Signbit(v) {
		t.Fatalf("−0 read back as %v", v)
	}
	if r.String() != long || !bytes.Equal(r.Bytes(), []byte{1, 2}) || string(r.Raw(3)) != "raw" {
		t.Fatal("byte runs did not round-trip")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestReaderRefusesWhatItCannotBack: a flipped byte fails the checksum, a
// truncated field or an out-of-range bool fails the read, and a count no
// input of this size can back fails before anything is allocated — each
// sticky, never a panic.
func TestReaderRefusesWhatItCannotBack(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 40)
	w.Byte(2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[0] ^= 1
	if _, err := Open(corrupt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: %v", err)
	}
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("a count of 2^40 in %d bytes read as %d (%v)", len(data), n, r.Err())
	}
	if r.Uint64() != 0 || r.String() != "" {
		t.Fatal("reads after a failure must return zero values")
	}
	r = &Reader{buf: []byte{2}}
	if r.Bool() || r.Err() == nil {
		t.Fatal("a bool of 2 was accepted")
	}
	r = &Reader{buf: []byte{3, 'a'}}
	if r.String() != "" || r.Err() == nil {
		t.Fatal("a truncated string was accepted")
	}
}
