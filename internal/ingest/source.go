package ingest

import (
	"context"
	"errors"

	"repro/internal/geom"
	"repro/internal/handler"
	"repro/internal/stream"
)

// Source yields the observations of one acquisition epoch [t0, t1), keyed
// by attribute — the seam that decouples the engine's epoch loop from where
// tuples come from. The returned map and batches may be storage the source
// reuses: they are valid until its next Acquire call; the engine ingests
// them synchronously.
type Source interface {
	Acquire(t0, t1 float64) (map[string]stream.Batch, error)
}

// Gated is implemented by sources whose epochs close on an event-time low
// watermark. The engine consults Ready before fabricating an epoch and
// reports the epoch open instead of acquiring from incomplete data;
// clocked engines park in WaitReady.
type Gated interface {
	Source
	// Ready reports whether the epoch ending at t1 may close.
	Ready(t1 float64) bool
	// WaitReady blocks until Ready(t1), the source is retired (ErrClosed),
	// or ctx is done.
	WaitReady(ctx context.Context, t1 float64) error
	// Watermark returns the current low watermark (math.Inf(-1) unknown).
	Watermark() float64
}

// FleetSource adapts the simulated request/response handler: every epoch
// spends the budgets on requests to the synthetic fleet, exactly as the
// pre-ingest engine did. It is never gated — the simulation always has the
// epoch's data by construction.
type FleetSource struct {
	H *handler.Handler
}

// Acquire runs one acquisition round over the fleet.
func (s FleetSource) Acquire(t0, t1 float64) (map[string]stream.Batch, error) {
	return s.H.RunEpoch(t0)
}

// QueueSource assembles epochs purely from externally pushed observations.
// Everything it touches per epoch — the buffer detached from the queue, the
// ordering keys, the gathered tuples, the result map — is reused across
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

// Queue returns the source's queue.
func (s *QueueSource) Queue() *Queue { return s.q }

// Acquire closes the epoch ending at t1 and returns its observations as one
// batch per attribute over the epoch window, each (T, ID)-sorted with ties
// in arrival order. Only the detach holds the queue's lock; from there the
// tuples are ordered by their 16-byte keys (assemble.go) and gathered once
// into per-attribute runs of one scratch slice, which the batches alias —
// never the detached buffer, which the next Acquire hands back to producers.
// An epoch with no observations is a nil map.
func (s *QueueSource) Acquire(t0, t1 float64) (map[string]stream.Batch, error) {
	s.detached = s.q.detach(t1, s.detached)
	if len(s.detached) == 0 {
		return nil, nil
	}
	clear(s.out)
	s.asm.orderKeys(s.detached, true)
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

// Ready implements Gated.
func (s *QueueSource) Ready(t1 float64) bool { return s.q.Ready(t1) }

// WaitReady implements Gated.
func (s *QueueSource) WaitReady(ctx context.Context, t1 float64) error {
	return s.q.WaitReady(ctx, t1)
}

// Watermark implements Gated.
func (s *QueueSource) Watermark() float64 { return s.q.Watermark() }

// MixedSource composes the simulated fleet with external pushes: every
// epoch acquires from both and merges per attribute, external tuples
// appended after the fleet's. With no producer activity a mixed epoch is
// byte-identical to the pure simulated mode (same batches, same RNG draw
// order); gating engages only once the queue has seen its first push or
// watermark assertion, so an idle gateway never stalls the simulation.
type MixedSource struct {
	fleet Source
	ext   *QueueSource
}

// NewMixedSource composes a fleet source with an external queue source.
func NewMixedSource(fleet Source, ext *QueueSource) (*MixedSource, error) {
	if fleet == nil || ext == nil {
		return nil, errors.New("ingest: NewMixedSource requires both sources")
	}
	return &MixedSource{fleet: fleet, ext: ext}, nil
}

// Acquire merges the fleet's epoch with the drained external tuples.
// External tuples follow the fleet's within each attribute batch, keeping
// the simulated tuples' pipeline RNG consumption identical to a pure
// simulated run; the merge phase re-establishes (T, ID) order downstream.
func (m *MixedSource) Acquire(t0, t1 float64) (map[string]stream.Batch, error) {
	out, err := m.fleet.Acquire(t0, t1)
	if err != nil {
		return nil, err
	}
	extBatches, err := m.ext.Acquire(t0, t1)
	if err != nil {
		return nil, err
	}
	if len(extBatches) == 0 {
		return out, nil
	}
	if out == nil {
		out = make(map[string]stream.Batch, len(extBatches))
	}
	for attr, eb := range extBatches {
		fb, ok := out[attr]
		if !ok {
			out[attr] = eb
			continue
		}
		fb.Tuples = append(fb.Tuples, eb.Tuples...)
		out[attr] = fb
	}
	return out, nil
}

// Ready implements Gated: epochs gate on the external watermark only after
// the first producer activity.
func (m *MixedSource) Ready(t1 float64) bool {
	return !m.ext.Queue().Active() || m.ext.Ready(t1)
}

// WaitReady implements Gated (immediate before the first producer shows up).
func (m *MixedSource) WaitReady(ctx context.Context, t1 float64) error {
	if m.Ready(t1) {
		return nil
	}
	return m.ext.WaitReady(ctx, t1)
}

// Watermark implements Gated.
func (m *MixedSource) Watermark() float64 { return m.ext.Watermark() }
