package estimate

import (
	"errors"
	"math"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
)

const (
	// eta0 and decay are the Bottou-style step sizes η_k = eta0 / (1 + decay·k).
	eta0  = 0.5
	decay = 0.01
	// gradClip bounds the Euclidean norm of each volume-normalized gradient
	// step. Clipping keeps the iterate stable when large batches with long
	// time horizons make the problem ill-conditioned.
	gradClip = 10
)

// SGD maintains an online estimate of the linear intensity parameters θ
// from a stream of event mini-batches — the mechanism the paper proposes for
// flattening "over sliding windows, as opposed to batches", citing Bottou's
// large-scale SGD. Each ObserveBatch performs one ascent step on the batch
// log-likelihood gradient, normalized by batch volume so learning rates are
// workload-independent; rates are floored at intensity.DefaultFloor.
type SGD struct {
	theta intensity.Theta
	step  int
	ready bool
	// ref is the union of all observed windows; gradient steps are
	// conditioned against its center and extents so thin per-batch time
	// slices do not blow up the time-slope direction.
	ref    geom.Window
	refSet bool
}

// observeRef grows the reference window to cover w.
func (s *SGD) observeRef(w geom.Window) {
	if !s.refSet {
		s.ref = w
		s.refSet = true
		return
	}
	if w.T0 < s.ref.T0 {
		s.ref.T0 = w.T0
	}
	if w.T1 > s.ref.T1 {
		s.ref.T1 = w.T1
	}
	r := s.ref.Rect
	s.ref.Rect = geom.Rect{
		MinX: math.Min(r.MinX, w.Rect.MinX),
		MinY: math.Min(r.MinY, w.Rect.MinY),
		MaxX: math.Max(r.MaxX, w.Rect.MaxX),
		MaxY: math.Max(r.MaxY, w.Rect.MaxY),
	}
}

// NewSGD creates an online estimator that has observed nothing.
func NewSGD() *SGD { return &SGD{} }

// Theta returns the current parameter estimate.
func (s *SGD) Theta() intensity.Theta { return s.theta }

// ObserveBatch performs one stochastic gradient step using the events
// observed over window w. An empty window is an error; an empty batch still
// contributes (the process said "no events here", pulling the rate down).
func (s *SGD) ObserveBatch(events []mdpp.Event, w geom.Window) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if !s.ready {
		// Seed with the homogeneous estimate from the first batch so early
		// steps start in a sensible region.
		s.theta = intensity.Theta{math.Max(float64(len(events))/w.Volume(), intensity.DefaultFloor), 0, 0, 0}
		s.ready = true
		return nil
	}
	// Step in centered, scale-normalized coordinates relative to the
	// reference window (the union of everything observed so far): with
	// basis u = (1, (t−tc)/ht, (x−xc)/hx, (y−yc)/hy) features stay O(1), so
	// the stochastic gradient is well-conditioned regardless of absolute
	// coordinates and the time-slope direction is not amplified by thin
	// per-batch slices.
	s.observeRef(w)
	c := s.ref.Rect.Center()
	tc := (s.ref.T0 + s.ref.T1) / 2
	ht := math.Max(s.ref.Duration()/2, 1e-12)
	hx := math.Max(s.ref.Rect.Width()/2, 1e-12)
	hy := math.Max(s.ref.Rect.Height()/2, 1e-12)
	var grad [4]float64 // gradient in the centered parameterization
	for _, e := range events {
		lam := s.theta[0] + s.theta[1]*e.T + s.theta[2]*e.X + s.theta[3]*e.Y
		if lam < intensity.DefaultFloor {
			lam = intensity.DefaultFloor
		}
		inv := 1 / lam
		grad[0] += inv
		grad[1] += (e.T - tc) / ht * inv
		grad[2] += (e.X - c.X) / hx * inv
		grad[3] += (e.Y - c.Y) / hy * inv
	}
	// Subtract ∫ u_k λ-independent terms over the *batch* window: the
	// centered features no longer integrate to zero against the reference
	// center, so compute them exactly (linear features over a box).
	vol := w.Volume()
	bc := w.Rect.Center()
	btc := (w.T0 + w.T1) / 2
	grad[0] -= vol
	grad[1] -= vol * (btc - tc) / ht
	grad[2] -= vol * (bc.X - c.X) / hx
	grad[3] -= vol * (bc.Y - c.Y) / hy
	norm := 0.0
	for k := 0; k < 4; k++ {
		grad[k] /= vol
		norm += grad[k] * grad[k]
	}
	if norm = math.Sqrt(norm); norm > gradClip {
		scale := gradClip / norm
		for k := 0; k < 4; k++ {
			grad[k] *= scale
		}
	}
	eta := eta0 / (1 + decay*float64(s.step))
	// Map the centered step back to the raw θ parameterization.
	dt, dx, dy := eta*grad[1]/ht, eta*grad[2]/hx, eta*grad[3]/hy
	s.theta[0] += eta*grad[0] - dt*tc - dx*c.X - dy*c.Y
	s.theta[1] += dt
	s.theta[2] += dx
	s.theta[3] += dy
	s.projectFeasible(w)
	s.step++
	return nil
}

// projectFeasible nudges θ0 up if the rate went non-positive at any corner
// of the observation window, keeping the iterate in the feasible region
// (projected SGD).
func (s *SGD) projectFeasible(w geom.Window) {
	worst := math.Inf(1)
	for _, t := range [2]float64{w.T0, w.T1} {
		for _, x := range [2]float64{w.Rect.MinX, w.Rect.MaxX} {
			for _, y := range [2]float64{w.Rect.MinY, w.Rect.MaxY} {
				v := s.theta[0] + s.theta[1]*t + s.theta[2]*x + s.theta[3]*y
				if v < worst {
					worst = v
				}
			}
		}
	}
	if worst < intensity.DefaultFloor {
		s.theta[0] += intensity.DefaultFloor - worst
	}
}

// FitSGD is a convenience batch driver: it splits events into sequential
// time-slice mini-batches over the window and feeds them to a fresh SGD
// estimator, returning the final θ. Used by experiment E9 to compare SGD
// against the batch MLE on identical data.
func FitSGD(events []mdpp.Event, w geom.Window, slices int, passes int) (intensity.Theta, error) {
	if slices <= 0 || passes <= 0 {
		return intensity.Theta{}, errors.New("estimate: FitSGD requires positive slices and passes")
	}
	if err := w.Validate(); err != nil {
		return intensity.Theta{}, err
	}
	s := NewSGD()
	dt := w.Duration() / float64(slices)
	// Pre-bin events by slice.
	bins := make([][]mdpp.Event, slices)
	for _, e := range events {
		idx := int((e.T - w.T0) / dt)
		if idx < 0 {
			idx = 0
		}
		if idx >= slices {
			idx = slices - 1
		}
		bins[idx] = append(bins[idx], e)
	}
	for p := 0; p < passes; p++ {
		for i := 0; i < slices; i++ {
			sw := geom.Window{T0: w.T0 + float64(i)*dt, T1: w.T0 + float64(i+1)*dt, Rect: w.Rect}
			if err := s.ObserveBatch(bins[i], sw); err != nil {
				return intensity.Theta{}, err
			}
		}
	}
	return s.Theta(), nil
}
