// Package inference implements the high-level inference layer that motivates
// crowdsensing in the paper's introduction: "data acquired using
// crowdsensing principles is typically used for performing high-level
// inference or phenomena detection". It consumes *fabricated* (fixed-rate)
// streams — precisely what CrAQR guarantees — and produces:
//
//   - CoverageEstimator: the fraction of a region where a boolean attribute
//     (rain) holds, per time window, with a Wilson confidence interval;
//   - EventDetector: threshold-crossing detection (e.g. "storm present")
//     with hysteresis over the coverage series.
//
// The fixed spatio-temporal rate matters: with a homogeneous sample, the
// plain sample mean of a boolean attribute is an unbiased estimate of areal
// coverage — the estimator the skewed raw stream would bias toward hotspots.
package inference

import (
	"errors"
	"math"
	"sync"

	"repro/internal/stream"
)

// CoverageEstimate is the output of CoverageEstimator for one time window.
type CoverageEstimate struct {
	WindowStart float64
	WindowEnd   float64
	N           int     // samples in the window
	Coverage    float64 // fraction of positive samples
	Lo, Hi      float64 // 95% Wilson interval
}

// CoverageEstimator estimates areal coverage of a boolean attribute from a
// homogeneous fabricated stream, bucketed into fixed time windows. It
// implements stream.Processor.
type CoverageEstimator struct {
	windowLen float64

	mu      sync.Mutex
	buckets map[int]*coverageBucket
}

type coverageBucket struct {
	n, pos int
}

// NewCoverageEstimator buckets samples into windows of windowLen time units.
func NewCoverageEstimator(windowLen float64) (*CoverageEstimator, error) {
	if windowLen <= 0 {
		return nil, errors.New("inference: window length must be positive")
	}
	return &CoverageEstimator{windowLen: windowLen, buckets: make(map[int]*coverageBucket)}, nil
}

// Process implements stream.Processor; Value > 0.5 counts as positive.
func (c *CoverageEstimator) Process(b stream.Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tp := range b.Tuples {
		idx := int(math.Floor(tp.T / c.windowLen))
		bk, ok := c.buckets[idx]
		if !ok {
			bk = &coverageBucket{}
			c.buckets[idx] = bk
		}
		bk.n++
		if tp.Value > 0.5 {
			bk.pos++
		}
	}
	return nil
}

// Estimates returns per-window estimates in time order, skipping empty
// windows.
func (c *CoverageEstimator) Estimates() []CoverageEstimate {
	c.mu.Lock()
	defer c.mu.Unlock()
	idxs := make([]int, 0, len(c.buckets))
	for i := range c.buckets {
		idxs = append(idxs, i)
	}
	sortInts(idxs)
	out := make([]CoverageEstimate, 0, len(idxs))
	for _, i := range idxs {
		bk := c.buckets[i]
		p := float64(bk.pos) / float64(bk.n)
		lo, hi := wilson(p, bk.n)
		out = append(out, CoverageEstimate{
			WindowStart: float64(i) * c.windowLen,
			WindowEnd:   float64(i+1) * c.windowLen,
			N:           bk.n,
			Coverage:    p,
			Lo:          lo,
			Hi:          hi,
		})
	}
	return out
}

// wilson returns the 95% Wilson score interval for a binomial proportion.
func wilson(p float64, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// Event is one detected episode of a phenomenon.
type Event struct {
	Start, End float64 // window bounds of the episode (End is exclusive)
	Peak       float64 // maximum signal during the episode
}

// EventDetector turns a coverage/intensity time series into discrete events
// with hysteresis: an event starts when the signal rises above On and ends
// when it falls below Off (< On), suppressing flicker at the threshold.
type EventDetector struct {
	On, Off float64

	active bool
	start  float64
	peak   float64
	events []Event
}

// NewEventDetector validates the thresholds.
func NewEventDetector(on, off float64) (*EventDetector, error) {
	if off >= on {
		return nil, errors.New("inference: hysteresis requires Off < On")
	}
	return &EventDetector{On: on, Off: off}, nil
}

// Observe feeds one (windowStart, windowEnd, signal) point in time order.
func (d *EventDetector) Observe(wStart, wEnd, signal float64) {
	if !d.active {
		if signal >= d.On {
			d.active = true
			d.start = wStart
			d.peak = signal
		}
		return
	}
	if signal > d.peak {
		d.peak = signal
	}
	if signal < d.Off {
		d.events = append(d.events, Event{Start: d.start, End: wStart, Peak: d.peak})
		d.active = false
	}
	_ = wEnd
}

// Finish closes any open episode at time t and returns all events.
func (d *EventDetector) Finish(t float64) []Event {
	if d.active {
		d.events = append(d.events, Event{Start: d.start, End: t, Peak: d.peak})
		d.active = false
	}
	return d.events
}
