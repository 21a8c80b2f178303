// Package ingest is the engine's front door for externally produced
// observations: the subsystem that lets the paper's Fig. 1 pipeline be fed
// by real crowdsensed traffic instead of (or next to) the simulated fleet.
//
// Three pieces compose it:
//
//   - Queue is the bounded per-session ingest buffer. Producers push
//     tuples carrying event-time timestamps; the queue accounts overflow
//     and late arrivals explicitly (never silently lost) and assembles
//     epochs deterministically: drained tuples are sorted by (T, ID), so
//     the content of a closed epoch is a pure function of the pushed
//     observations, independent of how they were batched or interleaved.
//
//   - The low watermark decides when an epoch closes: watermark =
//     max(maxEventTime − Tolerance, asserted floor). An epoch [t0, t1)
//     may close once the watermark has passed t1; until then a gated
//     engine's Step reports the epoch open instead of fabricating from
//     incomplete data. Producers that fall idle assert a watermark
//     explicitly (a push with no observations) to let epochs close.
//
//   - QueueSource drains a closed epoch out of the queue and assembles it
//     into one (T, ID)-ordered batch per attribute. The engine takes those
//     batches as they are in external mode and appends them after the
//     simulated fleet's in mixed mode.
//
// See DESIGN.md, "External ingestion and watermarks".
package ingest

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/stream"
)

// LatePolicy decides the fate of a tuple whose event time precedes the
// newest closed epoch boundary (it arrived after its epoch was fabricated).
type LatePolicy int

const (
	// LateDrop discards late tuples, counting them as LateDropped.
	LateDrop LatePolicy = iota
	// LateNextEpoch admits late tuples into the next epoch that closes,
	// keeping their original timestamps; they are counted as Late.
	LateNextEpoch
)

// String renders the policy ("drop", "next").
func (p LatePolicy) String() string {
	switch p {
	case LateDrop:
		return "drop"
	case LateNextEpoch:
		return "next"
	default:
		return fmt.Sprintf("LatePolicy(%d)", int(p))
	}
}

// ParseLatePolicy parses "drop" or "next".
func ParseLatePolicy(s string) (LatePolicy, error) {
	switch s {
	case "drop":
		return LateDrop, nil
	case "next":
		return LateNextEpoch, nil
	default:
		return 0, fmt.Errorf("ingest: unknown late policy %q (want \"drop\" or \"next\")", s)
	}
}

// DefaultBuffer bounds a queue built with a non-positive Buffer.
const DefaultBuffer = 1 << 16

// Config parameterizes a Queue.
type Config struct {
	// Buffer caps the number of buffered (pushed but not yet drained)
	// tuples; pushes beyond it are rejected and counted as Dropped
	// (0 = DefaultBuffer). This is the explicit backpressure bound: the
	// queue never blocks a producer and never grows past Buffer tuples.
	Buffer int
	// Tolerance is the allowed event-time out-of-orderness in simulation
	// time units: the low watermark trails the maximum observed event time
	// by Tolerance, so an epoch stays open that long after the first
	// observation past its end.
	Tolerance float64
	// Late selects the late-tuple policy (default LateDrop).
	Late LatePolicy
	// Region, when non-empty, rejects observations located outside it
	// (counted as Rejected) — pushes are validated against the engine's
	// region of interest before they can reach the map phase, which would
	// otherwise discard them silently.
	Region geom.Rect
	// Journal, when non-nil, observes every state-changing queue mutation
	// for write-ahead logging (see internal/wal). Both hooks are invoked
	// with the queue's lock held, so the journal records pushes and drains
	// in exactly the order they took effect — the serialization a
	// deterministic replay needs. Hooks must not call back into the queue.
	Journal Journal
}

// Journal receives the queue's mutations in effect order. Push passes the
// raw batch exactly as the producer sent it (pre-validation, original IDs)
// plus the watermark argument; a drain passes the closed epoch's horizon.
// Implementations must be fast and non-blocking: they run inside the
// queue's critical section.
type Journal interface {
	JournalPush(tuples []stream.Tuple, watermark float64)
	JournalDrain(t1 float64)
}

// Ack reports the fate of every tuple of one push — the per-batch
// acknowledgement returned to producers. Counts are tuples.
type Ack struct {
	// Accepted tuples entered the queue (including Late ones under
	// LateNextEpoch).
	Accepted int
	// Dropped tuples were rejected because the queue was full (overflow
	// backpressure).
	Dropped int
	// Late tuples arrived after their epoch closed and were redirected to
	// the next epoch (LateNextEpoch); they are also counted in Accepted.
	Late int
	// LateDropped tuples arrived after their epoch closed and were
	// discarded (LateDrop).
	LateDropped int
	// Rejected tuples failed validation (outside the configured region,
	// non-finite event time, coordinate, or value, or a client ID at or
	// above GatewayIDBase).
	Rejected int
	// Duplicates tuples carried a producer-assigned ID already buffered in
	// the pending window and were discarded — a redelivered batch cannot
	// double-count observations inside an epoch.
	Duplicates int
	// Watermark is the queue's low watermark after the push
	// (math.Inf(-1) before any event time or assertion is known).
	Watermark float64
	// Pending is the number of buffered tuples after the push.
	Pending int
}

// Stats is the queue's cumulative accounting, surfaced in /status and the
// session JSON. All counters are lifetime tuple counts.
type Stats struct {
	// Ingested tuples were accepted into the queue.
	Ingested uint64
	// Dropped tuples were rejected on overflow (queue full).
	Dropped uint64
	// Late tuples were redirected into a later epoch (LateNextEpoch).
	Late uint64
	// LateDropped tuples were discarded as late (LateDrop).
	LateDropped uint64
	// Rejected tuples failed validation (region, non-finite fields,
	// gateway-range client IDs).
	Rejected uint64
	// Duplicates tuples repeated a producer-assigned ID still buffered in
	// the pending window and were discarded.
	Duplicates uint64
	// Watermark is the current low watermark in simulation time units
	// (math.Inf(-1) when unknown).
	Watermark float64
	// Pending is the number of buffered tuples awaiting an epoch close.
	Pending int
}

// GatewayIDBase is OR-ed into gateway-assigned tuple IDs (observations
// pushed without an ID), keeping them disjoint from the simulated handler's
// sequential IDs in mixed mode and from client-supplied IDs, which the
// queue rejects at or above it. Producers that need replay-stable streams
// must assign their own IDs: gateway IDs follow arrival order, so two
// deliveries of the same observations in different orders get different IDs
// (and therefore different merge positions).
const GatewayIDBase uint64 = 1 << 63

// TupleMemBytes is the accounting unit for queue-byte quotas: the
// approximate resident size of one buffered tuple (struct fields plus
// amortized slice/header overhead). Quota math deliberately uses a fixed
// figure rather than measuring — the bound must be predictable for
// operators sizing MaxQueueBytes, and attr strings are interned.
const TupleMemBytes = 96

// negInf is the watermark before anything is known.
func negInf() float64 { return math.Inf(-1) }
