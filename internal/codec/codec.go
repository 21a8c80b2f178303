// Package codec is the binary encoding of a durable session's in-memory
// state: the format of the snapshots recovery restores from (see DESIGN.md,
// "Durability and recovery"). Each stateful component appends its own
// fields to a Writer and reads them back from a Reader; this package only
// frames them.
//
// Integers are varints (fixed 8 bytes where the value is an ID or raw bits),
// floats are their IEEE-754 bits, strings and byte runs carry a uvarint
// length. A file is the fields followed by a little-endian CRC-32 (IEEE) of
// every byte before it: Writer.Close appends it and Open checks it.
//
// Both sides are sticky on error: after the first failure writes are
// dropped and reads return zero values, so an encoder or decoder checks Err
// once at the end (or before acting on what it read). A Reader never
// allocates more than its input can back — every count is bounded by the
// bytes left — so arbitrary input costs at most its own size and never
// panics.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorrupt marks input that does not decode: a bad checksum, a truncated
// field or a value out of range.
var ErrCorrupt = errors.New("codec: corrupt state")

const (
	bufSize  = 64 << 10
	crcBytes = 4
)

// Writer buffers an encoding on its way to an io.Writer, checksumming every
// byte it passes on. The buffer is a fixed array indexed by n, so appending
// a field stores no slice header (and pays no write barrier).
type Writer struct {
	dst io.Writer
	buf *[bufSize]byte
	n   int
	crc uint32
	err error
}

// NewWriter returns a Writer that flushes to dst in 64 KiB chunks.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{dst: dst, buf: new([bufSize]byte)}
}

// flush passes the buffer on (or, after a failure, discards it).
func (w *Writer) flush() {
	if w.err == nil && w.n > 0 {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[:w.n])
		if _, err := w.dst.Write(w.buf[:w.n]); err != nil {
			w.err = err
		}
	}
	w.n = 0
}

// room returns the free tail of the buffer, flushing first when fewer than
// n bytes are free.
func (w *Writer) room(n int) []byte {
	if w.n+n > bufSize {
		w.flush()
	}
	return w.buf[w.n:]
}

// Fail records err (the first one wins); later writes are dropped and Close
// returns it. Encoders call it when the state cannot be represented.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Byte appends one byte.
func (w *Writer) Byte(b byte) {
	w.room(1)[0] = b
	w.n++
}

// Bool appends 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.n += binary.PutUvarint(w.room(binary.MaxVarintLen64), v)
}

// Varint appends v as a zig-zag varint.
func (w *Writer) Varint(v int64) {
	w.n += binary.PutVarint(w.room(binary.MaxVarintLen64), v)
}

// Int appends an int as a zig-zag varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Uint64 appends v as 8 little-endian bytes.
func (w *Writer) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(w.room(8), v)
	w.n += 8
}

// Float64 appends v's IEEE-754 bits, so it reads back exactly.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Float64s appends each value as Float64 does, checking the buffer once: the
// bulk path for records of several floats (ring tuples, operator reports).
func (w *Writer) Float64s(vs ...float64) {
	b := w.room(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	w.n += 8 * len(vs)
}

// String appends s with a uvarint length.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	appendRaw(w, s)
}

// Raw appends b as is (the caller knows its length on the way back).
func (w *Writer) Raw(b []byte) { appendRaw(w, b) }

func appendRaw[T string | []byte](w *Writer, s T) {
	for len(s) > 0 {
		c := copy(w.room(1), s)
		w.n += c
		s = s[c:]
	}
}

// Close flushes the buffer and appends the CRC-32 of everything written,
// returning the first failure. The destination is not closed.
func (w *Writer) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	var sum [crcBytes]byte
	binary.LittleEndian.PutUint32(sum[:], w.crc)
	if _, err := w.dst.Write(sum[:]); err != nil {
		w.err = err
	}
	return w.err
}

// Reader decodes fields from a byte slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open checks data's trailing CRC-32 and returns a Reader over what it
// covers.
func Open(data []byte) (*Reader, error) {
	if len(data) < crcBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a checksum", ErrCorrupt, len(data))
	}
	body := data[:len(data)-crcBytes]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return &Reader{buf: body}, nil
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Failf records a decode failure (the first one wins) wrapping ErrCorrupt.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Failf("truncated at byte %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Failf("bool out of range at byte %d", r.off-1)
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a zig-zag varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float64 reads IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed byte run; the result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Failf("length %d exceeds the %d bytes left", n, r.Remaining())
		return nil
	}
	return r.take(int(n))
}

// Raw reads n bytes written by Writer.Raw; the result aliases the input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Count reads an element count and checks that the input can hold that many
// elements of at least minBytes each — the bound that keeps a forged count
// from allocating more than the input's size.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.Failf("count %d exceeds what %d bytes can hold", n, r.Remaining())
		return 0
	}
	return int(n)
}
