package ingest

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/stream"
)

// ErrClosed is returned by Push and WaitReady after Close.
var ErrClosed = errors.New("ingest: queue closed")

// Queue is the bounded per-session buffer between external producers and
// the engine's epoch loop. Producers Push observation tuples at any rate;
// the epoch loop asks Ready whether the next epoch may close and drains it
// (QueueSource.Acquire) when the watermark allows. The queue never blocks a producer: overflow
// beyond Config.Buffer is rejected and counted, mirroring the explicit-drop
// discipline of stream.ResultStore on the delivery side.
//
// Epoch assembly is deterministic: a drain hands the due tuples out in the
// engine-wide (T, ID) order, so the fabricated stream of a closed epoch
// depends only on which observations were pushed before it closed — not on
// batch boundaries, arrival order, or producer interleaving. The lock covers
// only the hand-over (detach); ordering happens after it, on memory
// producers can no longer reach, so a push never waits behind a sort.
//
// Queue is safe for concurrent use by any number of producers and one
// epoch loop.
type Queue struct {
	mu  sync.Mutex
	cfg Config

	buf []stream.Tuple // pending tuples in arrival order
	// bufMaxT is the largest event time among the tuples in buf (−Inf when
	// empty): when it is below a drain's horizon everything buffered is due
	// and the drain is an O(1) buffer swap.
	bufMaxT float64
	// maxT is the largest event time observed; wmFloor the largest
	// explicitly asserted watermark. The low watermark is
	// max(maxT − Tolerance, wmFloor).
	maxT    float64
	wmFloor float64
	// closedTo is the event-time horizon of the newest closed epoch;
	// arrivals below it are late.
	closedTo float64
	seq      uint64 // gateway ID sequence for observations pushed without one
	active   bool   // a push or watermark assertion has been seen
	closed   bool
	// notify parks WaitReady callers: created by the first one to park,
	// closed (and cleared) when the watermark reaches waitT1 — the lowest
	// horizon any parked caller waits for — or the queue closes. Pushes that
	// leave the watermark short of waitT1 wake nobody.
	notify chan struct{}
	waitT1 float64
	// The duplicate window: the client-supplied IDs of the buffered tuples,
	// so a redelivery of an observation still pending is refused instead of
	// appearing twice in an epoch (gateway-assigned IDs are unique by
	// construction and never enter it). While producers number their
	// observations in ascending order it needs no index: idHigh is the
	// largest client ID accepted since the last full drain, so an ID above it
	// is new without a lookup. The first ID at or below idHigh — or a partial
	// drain — builds pendingIDs from buf, which until then holds everything
	// accepted since that drain (indexed), and from then until the next full
	// drain every ID is probed in, inserted into and removed from that set (a
	// flat open-addressing table, see idset.go).
	idHigh     uint64
	indexed    bool
	pendingIDs idSet

	ingested, dropped, late, lateDropped, rejected, duplicates uint64
}

// NewQueue builds an empty queue (Buffer ≤ 0 means DefaultBuffer).
func NewQueue(cfg Config) *Queue {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	return &Queue{
		cfg:      cfg,
		bufMaxT:  negInf(),
		maxT:     negInf(),
		wmFloor:  negInf(),
		closedTo: negInf(),
	}
}

// Push offers a batch of observation tuples, returning the per-batch ack.
// Tuples with ID zero get a gateway-assigned ID (GatewayIDBase | seq) in
// arrival order; a client-supplied ID must lie below GatewayIDBase, or the
// tuple is rejected. watermark, when not NaN, asserts that no observation with
// an event time below it will ever be pushed again — the idle-producer
// heartbeat that lets epochs close without further data; a push with no
// tuples and only a watermark is valid. The tuples slice is not retained.
func (q *Queue) Push(tuples []stream.Tuple, watermark float64) (Ack, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Ack{}, ErrClosed
	}
	var ack Ack
	for _, tp := range tuples {
		if !validObservation(tp, q.cfg.Region) {
			ack.Rejected++
			continue
		}
		var idSlot uint64
		probed := tp.ID != 0 && (q.indexed || tp.ID <= q.idHigh)
		if probed {
			if !q.indexed {
				q.index()
			}
			slot, dup := q.pendingIDs.probe(tp.ID)
			if dup {
				ack.Duplicates++
				continue
			}
			idSlot = slot
		}
		if tp.T < q.closedTo && q.cfg.Late == LateDrop {
			ack.LateDropped++
			continue
		}
		if len(q.buf) >= q.cfg.Buffer {
			ack.Dropped++
			// A dropped tuple still advances event time: it will never
			// appear in any epoch, and a watermark frozen by a full queue
			// would wedge the session — the epoch could never close, so the
			// buffer could never drain.
			if tp.T > q.maxT {
				q.maxT = tp.T
			}
			continue
		}
		if tp.T < q.closedTo {
			ack.Late++ // LateNextEpoch: admitted into the next epoch to close
		}
		switch {
		case probed:
			q.pendingIDs.insertAt(idSlot, tp.ID)
		case tp.ID == 0:
			q.seq++
			tp.ID = GatewayIDBase | q.seq
		default: // above idHigh, in a window not yet indexed
			q.idHigh = tp.ID
		}
		q.buf = append(q.buf, tp)
		ack.Accepted++
		if tp.T > q.bufMaxT { // bufMaxT ≤ maxT, so only a new buffer max can be a new max
			q.bufMaxT = tp.T
			if tp.T > q.maxT {
				q.maxT = tp.T
			}
		}
	}
	if !math.IsNaN(watermark) && watermark > q.wmFloor {
		q.wmFloor = watermark
	}
	// Only a push that actually contributes — an accepted tuple or a
	// watermark assertion — marks the producer active; an all-rejected (or
	// all-late-dropped) push must not engage mixed-mode gating while the
	// watermark is still unknown, which would freeze the simulation.
	if ack.Accepted > 0 || ack.Dropped > 0 || !math.IsNaN(watermark) {
		q.active = true
	}
	q.ingested += uint64(ack.Accepted)
	q.dropped += uint64(ack.Dropped)
	q.late += uint64(ack.Late)
	q.lateDropped += uint64(ack.LateDropped)
	q.rejected += uint64(ack.Rejected)
	q.duplicates += uint64(ack.Duplicates)
	ack.Watermark = q.watermarkLocked()
	ack.Pending = len(q.buf)
	// Journal the raw input (not the ack): replaying it through Push
	// re-derives every validation/late/overflow/gateway-ID decision, and
	// even all-rejected pushes mutate counters and watermark state. Still
	// under q.mu, so the journal's order is the effect order.
	if q.cfg.Journal != nil {
		q.cfg.Journal.JournalPush(tuples, watermark)
	}
	if q.notify != nil && ack.Watermark >= q.waitT1 {
		q.wake()
	}
	return ack, nil
}

// index builds the duplicate set from the client IDs in buf: the window
// switches from the high-water mark to per-tuple lookups until the next full
// drain. Before it, buf holds exactly the tuples accepted since the last full
// drain, whose client IDs ascend strictly, so every insert lands.
func (q *Queue) index() {
	for i := range q.buf {
		if id := q.buf[i].ID; id < GatewayIDBase {
			slot, _ := q.pendingIDs.probe(id)
			q.pendingIDs.insertAt(slot, id)
		}
	}
	q.indexed = true
}

// validObservation rejects tuples the map phase would silently discard or
// that would poison downstream arithmetic: empty attributes, non-finite
// event times, and non-finite coordinates or values. The latter matter
// because the binary wire format carries raw float64 bits — NaN/Inf smuggled
// through a frame must die here, before reaching estimators or the WAL's
// replayed state. A client ID with the top bit set is rejected too: that
// half of the ID space is the gateway's (GatewayIDBase), and a client tuple
// there could equal a gateway-assigned tuple in (T, ID).
func validObservation(tp stream.Tuple, region geom.Rect) bool {
	// x−x is 0 for every finite x and NaN for NaN/±Inf, and NaN poisons the
	// sum — one compare covers all four fields without a branch per field
	// (this runs once per ingested tuple).
	probe := (tp.T - tp.T) + (tp.X - tp.X) + (tp.Y - tp.Y) + (tp.Value - tp.Value)
	if tp.Attr == "" || probe != probe || tp.ID >= GatewayIDBase {
		return false
	}
	if !region.IsEmpty() && !region.Contains(geom.Point{X: tp.X, Y: tp.Y}) {
		return false
	}
	return true
}

func (q *Queue) watermarkLocked() float64 {
	wm := q.wmFloor
	if fromData := q.maxT - q.cfg.Tolerance; fromData > wm {
		wm = fromData
	}
	return wm
}

// Watermark returns the low watermark: the event time below which no new
// observations are expected (math.Inf(-1) before any push).
func (q *Queue) Watermark() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.watermarkLocked()
}

// Ready reports whether the epoch ending at t1 may close: the watermark has
// reached t1, or the queue was closed (final epochs drain what remains).
func (q *Queue) Ready(t1 float64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed || q.watermarkLocked() >= t1
}

// Active reports whether the queue has ever seen a push or watermark
// assertion — a mixed-source engine free-runs the simulated fleet until the
// first producer shows up.
func (q *Queue) Active() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active
}

// detach is the part of a drain that must be ordered against pushes, and
// the only part that holds q.mu: the tuples due by t1 — in-window ones and,
// under LateNextEpoch, older redirected ones — leave the queue in arrival
// order (tuples at or past t1 stay buffered, and arrivals below t1 after
// this call are late), their producer-assigned IDs leave the duplicate
// window, closedTo advances, and the journal records the drain. The
// returned slice is the caller's until it passes it back as the next call's
// spare (its contents are then dead); no producer can reach it.
//
// When everything buffered is due — the steady state: the watermark that
// let the epoch close has passed every buffered event time — the queue's
// buffer itself is handed out and spare takes its place, O(1). Otherwise one
// pass moves the due tuples into spare and compacts the rest.
func (q *Queue) detach(t1 float64, spare []stream.Tuple) []stream.Tuple {
	q.mu.Lock()
	defer q.mu.Unlock()
	var due []stream.Tuple
	if q.bufMaxT < t1 {
		due, q.buf = q.buf, spare[:0]
		q.bufMaxT = negInf()
		// The whole pending window leaves, so the duplicate window starts
		// over empty and unindexed; the set, if it was built, empties in one
		// pass instead of ID by ID (and costs nothing if it was not).
		q.pendingIDs.reset()
		q.idHigh, q.indexed = 0, false
	} else {
		// Some tuples stay, so IDs leave one by one: through the set.
		if !q.indexed {
			q.index()
		}
		due = spare[:0]
		kept := q.buf[:0]
		keptMax := negInf()
		for _, tp := range q.buf {
			if tp.T < t1 {
				due = append(due, tp)
				if tp.ID < GatewayIDBase {
					q.pendingIDs.remove(tp.ID)
				}
			} else {
				kept = append(kept, tp)
				if tp.T > keptMax {
					keptMax = tp.T
				}
			}
		}
		clear(q.buf[len(kept):]) // don't pin drained tuples' attr strings
		q.buf, q.bufMaxT = kept, keptMax
	}
	if t1 > q.closedTo {
		q.closedTo = t1
	}
	// The drain journal entry doubles as the epoch record: its position
	// among the push entries fixes which observations the closing epoch saw.
	// That position is only right if no push can slip in between the
	// hand-over above and the record, which is why it is written here, under
	// q.mu, and not after the unlock with the rest of the assembly.
	if q.cfg.Journal != nil {
		q.cfg.Journal.JournalDrain(t1)
	}
	return due
}

// Stats snapshots the queue's cumulative accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Ingested:    q.ingested,
		Dropped:     q.dropped,
		Late:        q.late,
		LateDropped: q.lateDropped,
		Rejected:    q.rejected,
		Duplicates:  q.duplicates,
		Watermark:   q.watermarkLocked(),
		Pending:     len(q.buf),
	}
}

// WaitReady blocks until the epoch ending at t1 may close (nil), the queue
// is closed (ErrClosed), or ctx is done (its error). A gated engine's
// simulated clock parks here instead of spinning on an open epoch.
func (q *Queue) WaitReady(ctx context.Context, t1 float64) error {
	for {
		q.mu.Lock()
		if q.watermarkLocked() >= t1 {
			q.mu.Unlock()
			return nil
		}
		if q.closed {
			q.mu.Unlock()
			return ErrClosed
		}
		if q.notify == nil {
			q.notify = make(chan struct{})
			q.waitT1 = t1
		} else if t1 < q.waitT1 {
			q.waitT1 = t1
		}
		ch := q.notify
		q.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// wake releases parked WaitReady callers; q.mu must be held.
func (q *Queue) wake() {
	if q.notify != nil {
		close(q.notify)
		q.notify = nil
	}
}

// Close retires the queue: further pushes fail with ErrClosed, parked
// WaitReady callers return ErrClosed, and Ready reports true so a draining
// engine can close its final epochs from whatever is buffered. Closing an
// already-closed queue is a no-op.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.wake()
}
