// Package export provides persistent sinks for acquired crowdsensed data
// streams. The paper notes that fabricated MCDS "are returned to the user or
// can be further processed using well-known stream processing frameworks";
// JSONLinesSink is the hand-off point: an ndjson writer that implements
// stream.Processor and can terminate any operator chain or query.
package export

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/stream"
	"repro/internal/wire"
)

// AppendTupleJSON appends one tuple's result record — the JSON object of the
// ndjson and SSE result framings, without a trailing newline — to dst,
// byte-identical to encoding/json but with no encoder, reflection or
// allocation beyond dst growth. Like encoding/json it refuses a NaN or ±Inf
// field; dst is then returned as it was.
func AppendTupleJSON(dst []byte, tp stream.Tuple) ([]byte, error) {
	for _, f := range [...]float64{tp.T, tp.X, tp.Y, tp.Value} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("export: json encode: unsupported value: %v", f)
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, tp.ID, 10)
	dst = append(dst, `,"attr":`...)
	dst = wire.AppendJSONString(dst, tp.Attr)
	dst = append(dst, `,"t":`...)
	dst = wire.AppendJSONFloat(dst, tp.T)
	dst = append(dst, `,"x":`...)
	dst = wire.AppendJSONFloat(dst, tp.X)
	dst = append(dst, `,"y":`...)
	dst = wire.AppendJSONFloat(dst, tp.Y)
	dst = append(dst, `,"value":`...)
	dst = wire.AppendJSONFloat(dst, tp.Value)
	dst = append(dst, `,"sensor":`...)
	dst = strconv.AppendInt(dst, int64(tp.Sensor), 10)
	return append(dst, '}'), nil
}

// jsonLinesFlush is the size past which JSONLinesSink hands its rendered
// records to the writer mid-batch, bounding the buffer it keeps.
const jsonLinesFlush = 32 << 10

// JSONLinesSink writes one JSON object per tuple (ndjson), the lingua franca
// of downstream stream processors. It is safe for concurrent use.
type JSONLinesSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // rendered records not yet written; empty between calls
}

// NewJSONLinesSink wraps an io.Writer.
func NewJSONLinesSink(w io.Writer) (*JSONLinesSink, error) {
	if w == nil {
		return nil, errors.New("export: NewJSONLinesSink requires a writer")
	}
	return &JSONLinesSink{w: w}, nil
}

// Process implements stream.Processor. Every record rendered before a
// failure is still written.
func (s *JSONLinesSink) Process(b stream.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, tp := range b.Tuples {
		if s.buf, err = AppendTupleJSON(s.buf, tp); err != nil {
			break
		}
		s.buf = append(s.buf, '\n')
		if len(s.buf) >= jsonLinesFlush {
			if err = s.flush(); err != nil {
				break
			}
		}
	}
	// Flushing after a failed flush is a no-op: the buffer is already empty.
	return cmp.Or(err, s.flush())
}

// flush writes the rendered records out; s.mu is held.
func (s *JSONLinesSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	if err != nil {
		return fmt.Errorf("export: json flush: %w", err)
	}
	return nil
}
