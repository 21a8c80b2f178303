package ingest

import (
	"repro/internal/codec"
	"repro/internal/stream"
)

// QueueState is a copy of everything a queue's later pushes and drains
// depend on — pending tuples in arrival order, watermarks, the closed
// horizon, the gateway ID sequence, the duplicate window and the counters —
// taken by Capture for a session snapshot.
type QueueState struct {
	buf                                                        []stream.Tuple
	bufMaxT, maxT, wmFloor, closedTo                           float64
	seq, idHigh                                                uint64
	active, indexed                                            bool
	ingested, dropped, late, lateDropped, rejected, duplicates uint64
}

// Capture copies the queue's state under its lock, calling at first while
// still holding it. Pushes journal under the same lock, so whatever at
// reads — a write-ahead log's position — is exactly the point the copy
// describes, however many producers are pushing.
func (q *Queue) Capture(at func()) QueueState {
	q.mu.Lock()
	defer q.mu.Unlock()
	at()
	return QueueState{
		buf:     append([]stream.Tuple(nil), q.buf...),
		bufMaxT: q.bufMaxT, maxT: q.maxT, wmFloor: q.wmFloor, closedTo: q.closedTo,
		seq: q.seq, idHigh: q.idHigh, active: q.active, indexed: q.indexed,
		ingested: q.ingested, dropped: q.dropped, late: q.late,
		lateDropped: q.lateDropped, rejected: q.rejected, duplicates: q.duplicates,
	}
}

// pendingMinBytes is the smallest encoding of a pending tuple.
const pendingMinBytes = 5*8 + 2

// Encode appends the state to w. The duplicate window is written as its
// mode only: when indexed, its set is exactly the client IDs pending, which
// DecodeState re-indexes.
func (s *QueueState) Encode(w *codec.Writer) {
	w.Uvarint(uint64(len(s.buf)))
	for i := range s.buf {
		tp := &s.buf[i]
		w.Uint64(tp.ID)
		w.String(tp.Attr)
		w.Float64(tp.T)
		w.Float64(tp.X)
		w.Float64(tp.Y)
		w.Float64(tp.Value)
		w.Int(tp.Sensor)
	}
	for _, v := range [...]float64{s.bufMaxT, s.maxT, s.wmFloor, s.closedTo} {
		w.Float64(v)
	}
	w.Uvarint(s.seq)
	w.Uvarint(s.idHigh)
	w.Bool(s.active)
	w.Bool(s.indexed)
	for _, v := range [...]uint64{s.ingested, s.dropped, s.late, s.lateDropped, s.rejected, s.duplicates} {
		w.Uvarint(v)
	}
}

// DecodeState restores what QueueState.Encode wrote into q, which must be
// fresh.
func (q *Queue) DecodeState(r *codec.Reader) {
	n := r.Count(pendingMinBytes)
	if n > q.cfg.Buffer {
		r.Failf("%d pending tuples in a queue of %d", n, q.cfg.Buffer)
		return
	}
	buf := make([]stream.Tuple, n)
	attr := ""
	for i := range buf {
		tp := &buf[i]
		tp.ID = r.Uint64()
		// Pending tuples mostly share a few attributes: keep one string per run.
		if b := r.Bytes(); string(b) != attr {
			attr = string(b)
		}
		tp.Attr = attr
		tp.T, tp.X, tp.Y, tp.Value = r.Float64(), r.Float64(), r.Float64(), r.Float64()
		tp.Sensor = r.Int()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.buf = buf
	q.bufMaxT, q.maxT, q.wmFloor, q.closedTo = r.Float64(), r.Float64(), r.Float64(), r.Float64()
	q.seq, q.idHigh = r.Uvarint(), r.Uvarint()
	q.active = r.Bool()
	indexed := r.Bool()
	q.ingested, q.dropped, q.late = r.Uvarint(), r.Uvarint(), r.Uvarint()
	q.lateDropped, q.rejected, q.duplicates = r.Uvarint(), r.Uvarint(), r.Uvarint()
	q.pendingIDs.reset()
	q.indexed = false
	if indexed && r.Err() == nil {
		q.index()
	}
}
