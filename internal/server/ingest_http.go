package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/ingest"
	"repro/internal/wire"
)

// The ingest gateway: POST /v1/sessions/{s}/ingest accepts externally
// produced observations for sessions running in external or mixed source
// mode.
//
// Three framings share one route, negotiated by Content-Type (the
// decoders live in internal/wire; the gateway owns only the HTTP
// plumbing):
//
//   - application/json (default): the body is one observation batch; the
//     response is its ack.
//   - application/x-ndjson (or ?stream=1): the body is a stream of batch
//     objects, one per line; the response streams one ack line per batch
//     as it is applied, so a long-lived producer sees drop/late accounting
//     per push. (Over HTTP/1.1 most clients deliver the acks once the
//     request body is closed — half-duplex — while HTTP/2 gets them live.)
//   - application/x-craqr-batch: the compact binary framing (wire/binary.go).
//     Unary requests carry exactly one frame; with ?stream=1 the body is a
//     sequence of frames and the response streams ndjson ack lines, one
//     per frame.
//
// Bodies may be compressed (Content-Encoding: gzip or deflate).
// Decompressed sizes are capped per batch — a compression bomb gets 413,
// any other encoding (zstd included) 415.
//
// A batch object is {"attr","watermark","observations":[…]}: attr is the
// default attribute for observations that carry none; watermark, when
// present, asserts that no observation with an older event time will
// follow (a batch with only a watermark is the idle-producer heartbeat
// that lets epochs close). Observations pushed without an id get a
// gateway-assigned one in arrival order; producers that need replay-stable
// streams assign their own ids (see ingest.GatewayIDBase).

// IngestCodecs lists the ingest Content-Types this gateway accepts, in
// advertisement order (see GET /v1/healthz).
var IngestCodecs = []string{"application/json", "application/x-ndjson", wire.ContentTypeBinary}

// finiteOrNil maps the unknown (−Inf) watermark to null on the wire —
// encoding/json cannot represent infinities.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// AppendIngestAck renders one ingest ack (with an optional error message)
// as a JSON line: the tuple counts accepted, dropped, late, lateDropped,
// rejected, duplicates (omitted when zero), the post-push low watermark in
// simulation time units, pending, and error (omitted when empty) —
// byte-identical to encoding/json but without an encoder, reflection, or
// any allocation beyond dst growth. A NaN/±Inf watermark, unknown until any
// event time or assertion is, renders as null. Exported for the
// root-package allocation benchmarks.
func AppendIngestAck(dst []byte, ack ingest.Ack, errMsg string) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(ack.Accepted), 10)
	dst = append(dst, `,"dropped":`...)
	dst = strconv.AppendInt(dst, int64(ack.Dropped), 10)
	dst = append(dst, `,"late":`...)
	dst = strconv.AppendInt(dst, int64(ack.Late), 10)
	dst = append(dst, `,"lateDropped":`...)
	dst = strconv.AppendInt(dst, int64(ack.LateDropped), 10)
	dst = append(dst, `,"rejected":`...)
	dst = strconv.AppendInt(dst, int64(ack.Rejected), 10)
	// duplicates is omitempty on both render paths: the overwhelmingly
	// common ack (no duplicate delivery, or no client IDs at all) stays one
	// field shorter, and producers that predate the field parse unchanged.
	if ack.Duplicates != 0 {
		dst = append(dst, `,"duplicates":`...)
		dst = strconv.AppendInt(dst, int64(ack.Duplicates), 10)
	}
	dst = append(dst, `,"watermark":`...)
	if math.IsInf(ack.Watermark, 0) || math.IsNaN(ack.Watermark) {
		dst = append(dst, `null`...)
	} else {
		dst = wire.AppendJSONFloat(dst, ack.Watermark)
	}
	dst = append(dst, `,"pending":`...)
	dst = strconv.AppendInt(dst, int64(ack.Pending), 10)
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = wire.AppendJSONString(dst, errMsg)
	}
	return append(dst, '}', '\n')
}

// ingestBatchLimit bounds one batch body / ndjson line / binary frame
// after decompression.
const ingestBatchLimit = 8 << 20

// IngestRetryAfterSeconds is the Retry-After hint sent with 503 ingest
// responses (queue closed mid-shutdown): long enough for a craqrd restart
// to come back, short enough that producers drain their backlog promptly.
const IngestRetryAfterSeconds = 1

// pushWireBatch validates a decoded batch and pushes it into the engine.
// The wire decoder has already applied the batch default attr, so an empty
// attr here means the producer supplied none at either level.
func pushWireBatch(e *Engine, b wire.Batch) (ingest.Ack, error) {
	for i := range b.Tuples {
		if b.Tuples[i].Attr == "" {
			return ingest.Ack{}, errors.New("observation missing attr (set it per observation or on the batch)")
		}
	}
	return e.PushObservations(b.Tuples, b.Watermark)
}

// errAck is the zero ack carried by error lines: its watermark renders as
// null, matching the historical encoder output for an unset *float64.
var errAck = ingest.Ack{Watermark: math.NaN()}

// producerToken extracts the producer identity the per-token gateway limits
// key on: X-CrAQR-Token, falling back to a Bearer credential. Producers
// without either are not per-token limited (per-session limits still apply).
func producerToken(r *http.Request) string {
	if tok := strings.TrimSpace(r.Header.Get("X-CrAQR-Token")); tok != "" {
		return tok
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && strings.EqualFold(auth[:7], "Bearer ") {
		return strings.TrimSpace(auth[7:])
	}
	return ""
}

// admitIngest runs both admission layers for one decoded batch: the
// gateway's per-token buckets, then the session's TenantLimits. The
// *RateLimitError comes back verbatim so writeErr can render the accurate
// Retry-After.
func (s *HTTPServer) admitIngest(e *Engine, token string, tupleCount, byteCount int) error {
	if err := s.gate.admit(token, tupleCount, byteCount); err != nil {
		return err
	}
	return e.AdmitIngest(tupleCount, byteCount)
}

// handleSessionIngest serves the push gateway (see the file comment for
// the wire contract).
func (s *HTTPServer) handleSessionIngest(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	e := sess.Engine
	if e.SourceMode() == SourceSimulated {
		s.writeErr(w, ErrNoIngest, http.StatusInternalServerError)
		return
	}
	ctype := r.Header.Get("Content-Type")
	binary := strings.Contains(ctype, "x-craqr-batch")
	streaming := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(ctype, "ndjson")
	body, err := wire.Decompress(r.Body, strings.TrimSpace(r.Header.Get("Content-Encoding")))
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	defer body.Close()

	d := wire.BorrowDecoder()
	defer d.Release()

	if !streaming {
		buf := wire.BorrowBuf()
		// Through a closure: the buffer to recycle is the one the body ended
		// up in, which is not the borrowed one once it had to grow.
		defer func() { wire.ReleaseBuf(buf) }()
		limit := ingestBatchLimit
		if binary {
			limit += 64 // frame header + CRC on top of the payload cap
		}
		if n := min(r.ContentLength, int64(limit)); n >= int64(cap(buf)) {
			// One allocation of the declared size, with room for the read
			// that reports EOF, instead of doubling up to it. ReadBody still
			// stops a body that outruns its declaration at limit+1.
			buf = make([]byte, 0, n+1)
		}
		buf, err = wire.ReadBody(body, limit, buf)
		if err != nil {
			s.writeErr(w, fmt.Errorf("reading ingest body: %w", err), http.StatusBadRequest)
			return
		}
		var batch wire.Batch
		if binary {
			batch, err = d.DecodeBinary(buf)
		} else {
			batch, err = d.DecodeJSON(buf)
		}
		if err != nil {
			s.writeErr(w, fmt.Errorf("invalid ingest batch: %w", err), http.StatusBadRequest)
			return
		}
		if err := s.admitIngest(e, producerToken(r), len(batch.Tuples), len(buf)); err != nil {
			s.writeErr(w, err, http.StatusInternalServerError)
			return
		}
		ack, err := pushWireBatch(e, batch)
		if err != nil {
			// What the table does not name is the producer's batch.
			s.writeErr(w, err, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		// The body is consumed (the queue copied what it kept), so the ack is
		// rendered into its buffer: a second pooled buffer would take turns
		// with this one, and a handler of large bodies would keep drawing the
		// small one.
		w.Write(AppendIngestAck(buf[:0], ack, ""))
		return
	}

	// Streaming: batches in (ndjson lines or binary frames), one ack line
	// per batch out, flushed per batch. A malformed batch or a push failure
	// ends the stream with a final error ack; everything before it was
	// applied. Full duplex lets HTTP/1.1 keep reading the body after the
	// first ack flush (without it the server closes the unread body);
	// transports that don't support it still work half-duplex.
	_ = http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	ackBuf := wire.BorrowBuf()
	defer func() { wire.ReleaseBuf(ackBuf) }()
	writeAck := func(ack ingest.Ack, errMsg string) bool {
		ackBuf = AppendIngestAck(ackBuf[:0], ack, errMsg)
		if _, err := w.Write(ackBuf); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	// Admission is per batch on a stream; a throttled producer gets the
	// refusal as the final error ack (the line carries the accurate
	// retry-after hint in its message) and the stream ends — everything
	// before it was applied.
	token := producerToken(r)
	apply := func(batch wire.Batch, byteCount int) bool {
		if err := s.admitIngest(e, token, len(batch.Tuples), byteCount); err != nil {
			writeAck(errAck, err.Error())
			return false
		}
		ack, err := pushWireBatch(e, batch)
		if err != nil {
			writeAck(errAck, err.Error())
			return false
		}
		return writeAck(ack, "")
	}

	if binary {
		// Buffered: the frame reader issues small header reads.
		fr := wire.NewFrameReader(bufio.NewReaderSize(body, 64<<10), d)
		for {
			batch, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				writeAck(errAck, fmt.Sprintf("invalid ingest batch: %v", err))
				return
			}
			// The frame's exact wire size is gone by the time the batch
			// surfaces; charge the fixed per-tuple payload cost instead.
			if !apply(batch, len(batch.Tuples)*wire.TupleWireBytes) {
				return
			}
		}
	}

	scanner := bufio.NewScanner(body)
	scanner.Buffer(make([]byte, 64<<10), ingestBatchLimit)
	for scanner.Scan() {
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		batch, err := d.DecodeJSON(line)
		if err != nil {
			writeAck(errAck, fmt.Sprintf("invalid ingest batch: %v", err))
			return
		}
		if !apply(batch, len(line)) {
			return
		}
	}
	if err := scanner.Err(); err != nil {
		writeAck(errAck, fmt.Sprintf("reading ingest stream: %v", err))
	}
}
