package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/stream"
)

// Type discriminates WAL records. The four types cover every input the
// engine's state is a deterministic function of: the ordered query
// submits/deletes, the raw pushed observation batches, and the epoch
// closes (see DESIGN.md, "Durability and recovery").
type Type uint8

const (
	// TypeSubmit records a successful query submission: the normalized query
	// plus the engine-assigned ID, so replay can verify it reproduces the
	// same assignment.
	TypeSubmit Type = 1
	// TypeDelete records a successful query deletion.
	TypeDelete Type = 2
	// TypePush records one raw PushObservations call — the tuples exactly as
	// the producer sent them (pre-validation, original IDs) plus the
	// watermark argument. Replaying through Queue.Push re-derives every
	// validation, late, overflow and gateway-ID decision.
	TypePush Type = 3
	// TypeEpoch records an epoch close at event-time horizon T1. For
	// queue-sourced engines it is written at drain time (inside the queue's
	// critical section, so its order against pushes is the effect order);
	// simulated engines write it after the epoch completes, with Epoch set
	// for replay verification (zero means unverified).
	TypeEpoch Type = 4
)

// String renders the record type.
func (t Type) String() string {
	switch t {
	case TypeSubmit:
		return "submit"
	case TypeDelete:
		return "delete"
	case TypePush:
		return "push"
	case TypeEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Record is one WAL entry. Only the fields for its Type are meaningful.
type Record struct {
	Type Type

	// TypeSubmit: the query in normalized form. Rect is MinX,MinY,MaxX,MaxY.
	// QueryID is the engine-assigned ID (also TypeDelete's target). The
	// payload ends in a string slot where older engines recorded a merge
	// mode: encode writes it empty and decode skips it.
	QueryID string
	Attr    string
	Rect    [4]float64
	Rate    float64

	// TypePush: raw batch + watermark argument (NaN = no assertion).
	Tuples    []stream.Tuple
	Watermark float64

	// TypeEpoch: the closed epoch's horizon and — when nonzero — the
	// engine's epoch count after the close, for replay verification.
	T1    float64
	Epoch uint64
}

// errCorruptRecord marks a payload that passed its CRC but does not decode
// — treated as a torn tail by Replay.
var errCorruptRecord = errors.New("wal: corrupt record payload")

// MaxStringLen bounds every string field (query IDs, attributes):
// the on-disk framing prefixes strings with a uint16 length.
const MaxStringLen = math.MaxUint16

// ErrRecordTooLarge is returned by Append (without writing anything) when a
// record cannot be framed: a string field longer than MaxStringLen or a
// payload over MaxRecordBytes. The log stays intact and appendable.
var ErrRecordTooLarge = errors.New("wal: record too large")

// Check verifies the record fits the on-disk framing: every string length
// must fit its uint16 prefix and the whole payload must stay within
// MaxRecordBytes. Append enforces it; callers that journal after applying a
// mutation (the engine's ingest path) call it first, so an unloggable
// input fails the request instead of desynchronizing state from the log.
func (r *Record) Check() error {
	size := 1 // type byte
	str := func(s string) bool {
		size += 2 + len(s)
		return len(s) <= MaxStringLen
	}
	switch r.Type {
	case TypeSubmit:
		size += 4*8 + 8 + 2 // rect, rate, the empty merge-mode slot
		if !str(r.QueryID) || !str(r.Attr) {
			return fmt.Errorf("%w: string field exceeds %d bytes", ErrRecordTooLarge, MaxStringLen)
		}
	case TypeDelete:
		if !str(r.QueryID) {
			return fmt.Errorf("%w: string field exceeds %d bytes", ErrRecordTooLarge, MaxStringLen)
		}
	case TypePush:
		size += 8 + 4 + len(r.Tuples)*(8+4*8+8)
		for i := range r.Tuples {
			if !str(r.Tuples[i].Attr) {
				return fmt.Errorf("%w: tuple attr exceeds %d bytes", ErrRecordTooLarge, MaxStringLen)
			}
		}
	case TypeEpoch:
		size += 8 + 8
	}
	if size > MaxRecordBytes {
		return fmt.Errorf("%w: %d-byte payload exceeds MaxRecordBytes (%d)", ErrRecordTooLarge, size, MaxRecordBytes)
	}
	return nil
}

func appendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendFloat64(dst []byte, v float64) []byte {
	return appendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	return append(append(dst, b[:]...), s...)
}

// encode appends the record's binary payload (type byte first) to dst.
// Floats are encoded as raw IEEE-754 bits, so replay sees the exact
// values — no text round-trip.
func (r *Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Type))
	switch r.Type {
	case TypeSubmit:
		dst = appendString(dst, r.QueryID)
		dst = appendString(dst, r.Attr)
		for _, v := range r.Rect {
			dst = appendFloat64(dst, v)
		}
		dst = appendFloat64(dst, r.Rate)
		dst = appendString(dst, "") // merge-mode slot
	case TypeDelete:
		dst = appendString(dst, r.QueryID)
	case TypePush:
		dst = appendFloat64(dst, r.Watermark)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(r.Tuples)))
		dst = append(dst, b[:]...)
		for _, tp := range r.Tuples {
			dst = appendUint64(dst, tp.ID)
			dst = appendString(dst, tp.Attr)
			dst = appendFloat64(dst, tp.T)
			dst = appendFloat64(dst, tp.X)
			dst = appendFloat64(dst, tp.Y)
			dst = appendFloat64(dst, tp.Value)
			dst = appendUint64(dst, uint64(int64(tp.Sensor)))
		}
	case TypeEpoch:
		dst = appendFloat64(dst, r.T1)
		dst = appendUint64(dst, r.Epoch)
	}
	return dst
}

// decoder is a bounds-checked cursor over a record payload.
type decoder struct {
	buf []byte
	off int
	err bool
}

func (d *decoder) uint64() uint64 {
	if d.err || d.off+8 > len(d.buf) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) float64() float64 { return math.Float64frombits(d.uint64()) }

func (d *decoder) uint32() uint32 {
	if d.err || d.off+4 > len(d.buf) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) string() string { return d.interned("") }

// interned reads a string, returning prev itself when the bytes equal it —
// a push's tuples almost always share one attribute, so the record pays for
// one string instead of one per tuple.
func (d *decoder) interned(prev string) string {
	if d.err || d.off+2 > len(d.buf) {
		d.err = true
		return ""
	}
	n := int(binary.LittleEndian.Uint16(d.buf[d.off:]))
	d.off += 2
	if d.off+n > len(d.buf) {
		d.err = true
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// decode parses payload into r, returning errCorruptRecord on any framing
// violation. r's Tuples storage is reused (see Log.ReplayFrom).
func (r *Record) decode(payload []byte) error {
	if len(payload) == 0 {
		return errCorruptRecord
	}
	*r = Record{Type: Type(payload[0]), Tuples: r.Tuples[:0]}
	d := decoder{buf: payload, off: 1}
	switch r.Type {
	case TypeSubmit:
		r.QueryID = d.string()
		r.Attr = d.string()
		for i := range r.Rect {
			r.Rect[i] = d.float64()
		}
		r.Rate = d.float64()
		d.string() // merge-mode slot
	case TypeDelete:
		r.QueryID = d.string()
	case TypePush:
		r.Watermark = d.float64()
		n := d.uint32()
		if d.err || int(n) > len(payload)/8 { // cheap sanity bound
			return errCorruptRecord
		}
		r.Tuples = slices.Grow(r.Tuples, int(n))
		attr := ""
		for i := uint32(0); i < n; i++ {
			tp := stream.Tuple{ID: d.uint64()}
			attr = d.interned(attr)
			tp.Attr = attr
			tp.T = d.float64()
			tp.X = d.float64()
			tp.Y = d.float64()
			tp.Value = d.float64()
			tp.Sensor = int(int64(d.uint64()))
			if d.err {
				return errCorruptRecord
			}
			r.Tuples = append(r.Tuples, tp)
		}
	case TypeEpoch:
		r.T1 = d.float64()
		r.Epoch = d.uint64()
	default:
		return errCorruptRecord
	}
	if d.err || d.off != len(payload) {
		return errCorruptRecord
	}
	return nil
}
