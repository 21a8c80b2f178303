// Package wire implements the ingest gateway's wire formats — the codec
// layer between external producers and the engine's ingest queue. It is
// the single source of truth for how observation batches travel over HTTP
// (both ends of the protocol — the server's decode path and the Go
// client's encode path — share it), and it is built for the gateway's
// traffic profile: millions of small batches, each decoded exactly once,
// on a path that must not allocate in steady state.
//
// Three framings share the POST /ingest route, negotiated by Content-Type:
//
//   - application/json: one batch object per request. Decoded by a
//     hand-rolled streaming tokenizer (no reflection, no encoding/json)
//     over the raw body bytes into borrowed tuple storage from the
//     internal/stream arena — steady-state decode is 0 allocs/op.
//   - application/x-ndjson: a stream of batch objects, one per line,
//     decoded by the same tokenizer line by line.
//   - application/x-craqr-batch: the compact binary framing — CRC-checked
//     length-prefixed little-endian frames (see binary.go) holding an
//     attr table plus columnar tuple data. Roughly 4× denser than JSON
//     and decoded without parsing text at all.
//
// Request bodies may additionally be compressed (Content-Encoding: gzip
// or deflate); see compress.go for the pooled readers and the
// decompression-bomb cap.
//
// Decoders are pooled: BorrowDecoder/Release recycle the tokenizer's
// scratch (tuple storage, attr intern table, unescape buffer) through a
// package arena, mirroring stream.BorrowTuples. A decoded Batch borrows
// the decoder's storage and is valid only until the next Decode* call or
// Release.
//
// Every malformed input maps to a typed error — truncated frames, CRC
// mismatches, oversized declared lengths (rejected before any allocation
// of the declared size), invalid UTF-8 attrs, syntax errors — and never a
// panic; FuzzWireDecode pins that.
package wire

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stream"
)

// Batch is one decoded ingest push: the default attribute (applied to
// observations that carried none; "" when absent), the optional watermark
// assertion (NaN = none), and the observation tuples. Tuples borrows the
// decoder's arena storage — copy before retaining past the next decode.
type Batch struct {
	Attr      string
	Watermark float64
	Tuples    []stream.Tuple
}

// MaxFrameBytes bounds one wire frame (a JSON body, an ndjson line, or a
// binary frame payload): 8 MiB, the gateway's long-standing per-batch
// limit. Frames declaring more are rejected with ErrFrameTooLarge before
// any buffer of the declared size is allocated.
const MaxFrameBytes = 8 << 20

// MaxAttrLen bounds one attribute name on the wire, matching the WAL's
// uint16 string framing (wal.MaxStringLen) so every decodable batch is
// also journalable.
const MaxAttrLen = math.MaxUint16

// Typed decode failures. The HTTP layer maps ErrFrameTooLarge and
// ErrBodyTooLarge to 413, ErrUnsupportedEncoding to 415, and everything
// else to 400.
var (
	// ErrTruncated marks a frame that ends before its declared content.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrCRCMismatch marks a binary frame whose payload fails its checksum.
	ErrCRCMismatch = errors.New("wire: frame CRC mismatch")
	// ErrBadMagic marks a binary frame that does not start with the CQB1
	// magic (usually a content-type mix-up).
	ErrBadMagic = errors.New("wire: not a craqr batch frame (bad magic)")
	// ErrFrameTooLarge marks a frame whose declared or actual size exceeds
	// MaxFrameBytes. Declared-size violations are rejected by arithmetic
	// alone — nothing of the declared size is ever allocated.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrInvalidAttr marks an attribute name that is not valid UTF-8 or
	// exceeds MaxAttrLen.
	ErrInvalidAttr = errors.New("wire: invalid attribute name")
)

// SyntaxError reports a malformed JSON batch with its byte offset.
type SyntaxError struct {
	Off int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("wire: invalid batch JSON at offset %d: %s", e.Off, e.Msg)
}
