package ingest

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/stream"
)

// QueueSource assembles the observations pushed into a queue into epochs.
// Everything it touches per epoch — the buffer detached from the queue, the
// ordering words, the gathered tuples, the result map — is reused across
// epochs and sized to the epochs actually drained, so steady-state assembly
// performs no heap allocation; the returned map and its batches are valid
// until the next Acquire.
type QueueSource struct {
	q      *Queue
	region geom.Rect
	// detached is the buffer the last drain took out of the queue; the next
	// drain hands it back as the queue's spare.
	detached []stream.Tuple
	scratch  []stream.Tuple // gather target the batches alias
	asm      assembler
	out      map[string]stream.Batch
}

// NewQueueSource builds a source draining q; region becomes the spatial
// extent of every epoch window.
func NewQueueSource(q *Queue, region geom.Rect) (*QueueSource, error) {
	if q == nil {
		return nil, errors.New("ingest: NewQueueSource requires a queue")
	}
	if region.IsEmpty() {
		return nil, errors.New("ingest: NewQueueSource requires a non-empty region")
	}
	return &QueueSource{q: q, region: region, out: make(map[string]stream.Batch)}, nil
}

// Acquire closes the epoch ending at t1 and returns its observations as one
// batch per attribute over the epoch window, each (T, ID)-sorted with ties
// in arrival order. Only the detach holds the queue's lock; every epoch is
// then ordered by one 8-byte word per tuple (assemble.go) and gathered once
// into one scratch slice, which the batches alias — never the detached
// buffer, which the next Acquire hands back to producers. An epoch with no
// observations is a nil map.
func (s *QueueSource) Acquire(t0, t1 float64) (map[string]stream.Batch, error) {
	s.detached = s.q.detach(t1, s.detached)
	if len(s.detached) == 0 {
		return nil, nil
	}
	clear(s.out)
	s.asm.orderKeys(s.detached, t0)
	s.scratch = s.asm.gather(s.scratch[:0], s.detached)
	tuples := s.scratch
	window := geom.NewWindow(t0, t1, s.region)
	for i := range s.asm.runs {
		r := &s.asm.runs[i]
		s.out[r.name] = stream.Batch{
			Attr:   r.name,
			Window: window,
			Tuples: tuples[r.start : r.start+r.n : r.start+r.n],
		}
	}
	return s.out, nil
}
