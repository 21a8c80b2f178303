// Package mobility simulates the movement of mobile sensors. The paper's
// premise is that crowdsensed arrivals are spatio-temporally skewed because
// sensors (humans, vehicles) move unpredictably and cluster around points of
// interest. A Walker reproduces both: it travels in straight legs between
// stops at a speed drawn per leg and dwells at each stop, and it draws its
// stops uniformly over the region (random-waypoint motion) or around
// weighted hotspots (persistent spatial skew). A walker is deterministic
// given its RNG, and its encoded state continues the same path.
package mobility

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Hotspot describes an attraction point for a hotspot walker.
type Hotspot struct {
	Center geom.Point
	Sigma  float64 // spatial spread of dwell positions around the center
	Weight float64 // relative popularity
}

// Walker is a mobile entity confined to a region: it walks to a stop at a
// uniform speed in [vmin, vmax], dwells there, and repeats. Without
// hotspots a stop is uniform over the region; with them it is a Gaussian
// draw around a hotspot picked with probability proportional to its weight,
// clamped to the region. Fleets of hotspot walkers produce the persistent,
// heavily skewed spatial density the paper's Flatten operator has to undo.
type Walker struct {
	region     geom.Rect
	spots      []Hotspot
	totalW     float64
	vmin, vmax float64
	dwell      float64

	pos, dest geom.Point
	speed     float64
	dwellLeft float64
	moving    bool
	rng       *stats.RNG
}

// NewRandomWaypoint creates a walker with uniform stops (the classical
// random-waypoint model), starting at a uniform position.
func NewRandomWaypoint(region geom.Rect, vmin, vmax, pause float64, rng *stats.RNG) (*Walker, error) {
	return newWalker(region, nil, vmin, vmax, pause, rng)
}

// NewHotspotWalker creates a walker whose stops, the start included, are
// drawn around spots.
func NewHotspotWalker(region geom.Rect, spots []Hotspot, vmin, vmax, dwell float64, rng *stats.RNG) (*Walker, error) {
	if len(spots) == 0 {
		return nil, errors.New("mobility: a hotspot walker requires at least one hotspot")
	}
	return newWalker(region, spots, vmin, vmax, dwell, rng)
}

func newWalker(region geom.Rect, spots []Hotspot, vmin, vmax, dwell float64, rng *stats.RNG) (*Walker, error) {
	if region.IsEmpty() {
		return nil, errors.New("mobility: a walker requires a non-empty region")
	}
	if vmin <= 0 || vmax < vmin {
		return nil, fmt.Errorf("mobility: invalid speed range [%g, %g]", vmin, vmax)
	}
	if dwell < 0 {
		return nil, errors.New("mobility: dwell must be non-negative")
	}
	if rng == nil {
		return nil, errors.New("mobility: a walker requires an RNG")
	}
	total := 0.0
	for i, s := range spots {
		if s.Weight <= 0 {
			return nil, fmt.Errorf("mobility: hotspot %d must have positive weight", i)
		}
		if s.Sigma <= 0 {
			return nil, fmt.Errorf("mobility: hotspot %d must have positive sigma", i)
		}
		total += s.Weight
	}
	w := &Walker{region: region, spots: spots, totalW: total, vmin: vmin, vmax: vmax, dwell: dwell, rng: rng}
	w.pos = w.stop()
	w.nextLeg()
	return w, nil
}

// stop draws the walker's next stop.
func (w *Walker) stop() geom.Point {
	r := w.region
	if len(w.spots) == 0 {
		return geom.Point{X: w.rng.Uniform(r.MinX, r.MaxX), Y: w.rng.Uniform(r.MinY, r.MaxY)}
	}
	u := w.rng.Float64() * w.totalW
	idx := 0
	for i, s := range w.spots {
		if u < s.Weight {
			idx = i
			break
		}
		u -= s.Weight
		idx = i
	}
	s := w.spots[idx]
	p := geom.Point{X: w.rng.Normal(s.Center.X, s.Sigma), Y: w.rng.Normal(s.Center.Y, s.Sigma)}
	// Confine p to the half-open region.
	eps := 1e-9 * (r.Width() + r.Height())
	if p.X < r.MinX {
		p.X = r.MinX
	}
	if p.X >= r.MaxX {
		p.X = r.MaxX - eps
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	}
	if p.Y >= r.MaxY {
		p.Y = r.MaxY - eps
	}
	return p
}

// nextLeg starts the walk to a new stop.
func (w *Walker) nextLeg() {
	w.dest = w.stop()
	w.speed = w.rng.Uniform(w.vmin, w.vmax)
	w.moving = true
}

// Position returns the current location.
func (w *Walker) Position() geom.Point { return w.pos }

// Step advances the walker by dt time units.
func (w *Walker) Step(dt float64) {
	for dt > 0 {
		if !w.moving {
			if w.dwellLeft > dt {
				w.dwellLeft -= dt
				return
			}
			dt -= w.dwellLeft
			w.dwellLeft = 0
			w.nextLeg()
			continue
		}
		dx, dy := w.dest.X-w.pos.X, w.dest.Y-w.pos.Y
		dist := math.Hypot(dx, dy)
		if dist < 1e-12 {
			w.moving = false
			w.dwellLeft = w.dwell
			continue
		}
		travel := w.speed * dt
		if travel >= dist {
			w.pos = w.dest
			dt -= dist / w.speed
			w.moving = false
			w.dwellLeft = w.dwell
			continue
		}
		w.pos.X += dx / dist * travel
		w.pos.Y += dy / dist * travel
		return
	}
}

// EncodeState appends the walker's motion state to enc: position,
// destination, speed, the time left at a stop, whether it is moving, and
// the RNG. A walker of the same configuration restored from it by
// DecodeState continues the same path.
func (w *Walker) EncodeState(enc *codec.Writer) {
	geom.EncodePoint(enc, w.pos)
	geom.EncodePoint(enc, w.dest)
	enc.Float64(w.speed)
	enc.Float64(w.dwellLeft)
	enc.Bool(w.moving)
	w.rng.EncodeState(enc)
}

// DecodeState restores what EncodeState wrote.
func (w *Walker) DecodeState(r *codec.Reader) {
	w.pos, w.dest = geom.DecodePoint(r), geom.DecodePoint(r)
	w.speed, w.dwellLeft = r.Float64(), r.Float64()
	w.moving = r.Bool()
	w.rng.DecodeState(r)
}
