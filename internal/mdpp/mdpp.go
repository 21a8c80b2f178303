// Package mdpp implements multi-dimensional point processes (MDPPs) over the
// three dimensions (t, x, y) — the paper's model for the spatio-temporal
// arrival of crowdsensed tuples. It provides process descriptors for
// homogeneous P(λ, R) and inhomogeneous P̃(λ̃, R) processes, exact samplers
// (Poisson counts with uniform placement for homogeneous processes,
// Lewis–Shedler thinning for inhomogeneous ones), and spatial binning of
// events.
package mdpp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
)

// Event is a single point of the process: the space-time coordinates of a
// crowdsensed tuple.
type Event struct {
	T, X, Y float64
}

// Process describes an MDPP: an intensity over a spatial extent. It mirrors
// the paper's P⟨j⟩(λ, R) / P̃⟨j⟩(λ̃, R) notation: Rate is the conditional
// intensity (constant for homogeneous processes) and Region is R.
type Process struct {
	Rate   intensity.Func
	Region geom.Rect
}

// NewHomogeneous builds P(λ, R) with constant rate λ.
func NewHomogeneous(rate float64, region geom.Rect) (Process, error) {
	c, err := intensity.NewConstant(rate)
	if err != nil {
		return Process{}, err
	}
	if region.IsEmpty() {
		return Process{}, errors.New("mdpp: process region must be non-empty")
	}
	return Process{Rate: c, Region: region}, nil
}

// NewInhomogeneous builds P̃(λ̃, R) with the given intensity function.
func NewInhomogeneous(rate intensity.Func, region geom.Rect) (Process, error) {
	if rate == nil {
		return Process{}, errors.New("mdpp: process requires an intensity")
	}
	if region.IsEmpty() {
		return Process{}, errors.New("mdpp: process region must be non-empty")
	}
	return Process{Rate: rate, Region: region}, nil
}

// IsHomogeneous reports whether the process has a constant rate.
func (p Process) IsHomogeneous() bool {
	_, ok := p.Rate.(intensity.Constant)
	return ok
}

// ConstantRate returns the rate of a homogeneous process; the boolean is
// false for inhomogeneous processes.
func (p Process) ConstantRate() (float64, bool) {
	c, ok := p.Rate.(intensity.Constant)
	if !ok {
		return 0, false
	}
	return c.Rate, true
}

// ExpectedCount returns E[N(w ∩ region)] = ∫ λ over the window clipped to
// the process region.
func (p Process) ExpectedCount(w geom.Window) float64 {
	clipped, ok := w.Rect.Intersect(p.Region)
	if !ok {
		return 0
	}
	return p.Rate.IntegralOver(w.WithRect(clipped))
}

// String renders the process in the paper's notation.
func (p Process) String() string {
	if r, ok := p.ConstantRate(); ok {
		return fmt.Sprintf("P(%g, %v)", r, p.Region)
	}
	return fmt.Sprintf("P~(λ̃, %v)", p.Region)
}

// Sample draws one realization of the process over the time interval
// [w.T0, w.T1), restricted to the intersection of w.Rect and the process
// region. Events are returned sorted by time. Homogeneous processes are
// sampled exactly (Poisson count + uniform placement); inhomogeneous ones
// via Lewis–Shedler thinning against the MaxOver bound.
func (p Process) Sample(w geom.Window, rng *stats.RNG) ([]Event, error) {
	if rng == nil {
		return nil, errors.New("mdpp: Sample requires an RNG")
	}
	clipped, ok := w.Rect.Intersect(p.Region)
	if !ok {
		return nil, nil
	}
	win := w.WithRect(clipped)
	if err := win.Validate(); err != nil {
		return nil, fmt.Errorf("mdpp: Sample: %w", err)
	}
	var events []Event
	if rate, homogeneous := p.ConstantRate(); homogeneous {
		events = sampleHomogeneous(rate, win, rng)
	} else {
		var err error
		events, err = sampleByThinning(p.Rate, win, rng)
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events, nil
}

func sampleHomogeneous(rate float64, w geom.Window, rng *stats.RNG) []Event {
	n := rng.Poisson(rate * w.Volume())
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			T: rng.Uniform(w.T0, w.T1),
			X: rng.Uniform(w.Rect.MinX, w.Rect.MaxX),
			Y: rng.Uniform(w.Rect.MinY, w.Rect.MaxY),
		}
	}
	return events
}

// sampleByThinning implements the Lewis–Shedler construction: sample a
// dominating homogeneous process at rate λmax and keep each point with
// probability λ(point)/λmax.
func sampleByThinning(f intensity.Func, w geom.Window, rng *stats.RNG) ([]Event, error) {
	lambdaMax := f.MaxOver(w)
	if lambdaMax < 0 {
		return nil, errors.New("mdpp: intensity bound is negative")
	}
	if lambdaMax == 0 {
		return nil, nil
	}
	candidates := sampleHomogeneous(lambdaMax, w, rng)
	events := candidates[:0]
	for _, e := range candidates {
		if rng.Bernoulli(f.Eval(e.T, e.X, e.Y) / lambdaMax) {
			events = append(events, e)
		}
	}
	return events, nil
}

// SpatialCounts bins the events into an nx × ny spatial grid over the
// window's rectangle, ignoring time — the statistic used by homogeneity
// tests on Flatten output.
func SpatialCounts(events []Event, w geom.Window, nx, ny int) (*stats.Grid2D, error) {
	g, err := stats.NewGrid2D(w.Rect.MinX, w.Rect.MaxX, w.Rect.MinY, w.Rect.MaxY, nx, ny)
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		if e.T >= w.T0 && e.T < w.T1 {
			g.Add(e.X, e.Y)
		}
	}
	return g, nil
}
