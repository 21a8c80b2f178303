// Package mobility simulates the movement of mobile sensors. The paper's
// premise is that crowdsensed arrivals are spatio-temporally skewed because
// sensors (humans, vehicles) move unpredictably and cluster around points of
// interest; this package supplies walkers that reproduce those patterns:
// random-waypoint motion and hotspot-attracted motion (persistent spatial
// skew). All walkers are deterministic given their RNG.
package mobility

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Walker is a mobile entity confined to a region.
type Walker interface {
	// Position returns the current location.
	Position() geom.Point
	// Step advances the walker by dt time units.
	Step(dt float64)
}

// encodeLeg appends what the waypoint walkers share: position, destination,
// speed, the time left at a stop, whether they are moving, and the RNG.
func encodeLeg(w *codec.Writer, pos, dest geom.Point, speed, left float64, moving bool, rng *stats.RNG) {
	geom.EncodePoint(w, pos)
	geom.EncodePoint(w, dest)
	w.Float64(speed)
	w.Float64(left)
	w.Bool(moving)
	rng.EncodeState(w)
}

func decodeLeg(r *codec.Reader, pos, dest *geom.Point, speed, left *float64, moving *bool, rng *stats.RNG) {
	*pos, *dest = geom.DecodePoint(r), geom.DecodePoint(r)
	*speed, *left = r.Float64(), r.Float64()
	*moving = r.Bool()
	rng.DecodeState(r)
}

// EncodeState appends the walker's motion state to enc; a walker restored
// from it by DecodeState continues the same path.
func (w *RandomWaypoint) EncodeState(enc *codec.Writer) {
	encodeLeg(enc, w.pos, w.dest, w.speed, w.pauseLeft, w.travelling, w.rng)
}

// DecodeState restores what EncodeState wrote.
func (w *RandomWaypoint) DecodeState(r *codec.Reader) {
	decodeLeg(r, &w.pos, &w.dest, &w.speed, &w.pauseLeft, &w.travelling, w.rng)
}

// EncodeState appends the walker's motion state to enc; a walker restored
// from it by DecodeState continues the same path.
func (w *HotspotWalker) EncodeState(enc *codec.Writer) {
	encodeLeg(enc, w.pos, w.dest, w.speed, w.dwellLeft, w.moving, w.rng)
}

// DecodeState restores what EncodeState wrote.
func (w *HotspotWalker) DecodeState(r *codec.Reader) {
	decodeLeg(r, &w.pos, &w.dest, &w.speed, &w.dwellLeft, &w.moving, w.rng)
}

// clampToRect confines p to the half-open rectangle r.
func clampToRect(p geom.Point, r geom.Rect) geom.Point {
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

// RandomWaypoint implements the classical random-waypoint model: pick a
// uniform destination in the region, travel toward it at a uniform speed,
// pause, repeat.
type RandomWaypoint struct {
	region     geom.Rect
	pos, dest  geom.Point
	speed      float64
	vmin, vmax float64
	pause      float64
	pauseLeft  float64
	rng        *stats.RNG
	travelling bool
}

// NewRandomWaypoint creates a walker starting at a uniform position.
func NewRandomWaypoint(region geom.Rect, vmin, vmax, pause float64, rng *stats.RNG) (*RandomWaypoint, error) {
	if region.IsEmpty() {
		return nil, errors.New("mobility: RandomWaypoint requires a non-empty region")
	}
	if vmin <= 0 || vmax < vmin {
		return nil, fmt.Errorf("mobility: invalid speed range [%g, %g]", vmin, vmax)
	}
	if pause < 0 {
		return nil, errors.New("mobility: pause must be non-negative")
	}
	if rng == nil {
		return nil, errors.New("mobility: RandomWaypoint requires an RNG")
	}
	w := &RandomWaypoint{region: region, vmin: vmin, vmax: vmax, pause: pause, rng: rng}
	w.pos = geom.Point{X: rng.Uniform(region.MinX, region.MaxX), Y: rng.Uniform(region.MinY, region.MaxY)}
	w.pickDestination()
	return w, nil
}

func (w *RandomWaypoint) pickDestination() {
	w.dest = geom.Point{X: w.rng.Uniform(w.region.MinX, w.region.MaxX), Y: w.rng.Uniform(w.region.MinY, w.region.MaxY)}
	w.speed = w.rng.Uniform(w.vmin, w.vmax)
	w.travelling = true
}

// Position implements Walker.
func (w *RandomWaypoint) Position() geom.Point { return w.pos }

// Step implements Walker.
func (w *RandomWaypoint) Step(dt float64) {
	for dt > 0 {
		if !w.travelling {
			if w.pauseLeft > dt {
				w.pauseLeft -= dt
				return
			}
			dt -= w.pauseLeft
			w.pauseLeft = 0
			w.pickDestination()
			continue
		}
		dx, dy := w.dest.X-w.pos.X, w.dest.Y-w.pos.Y
		dist := math.Hypot(dx, dy)
		if dist < 1e-12 {
			w.travelling = false
			w.pauseLeft = w.pause
			continue
		}
		travel := w.speed * dt
		if travel >= dist {
			w.pos = w.dest
			dt -= dist / w.speed
			w.travelling = false
			w.pauseLeft = w.pause
			continue
		}
		w.pos.X += dx / dist * travel
		w.pos.Y += dy / dist * travel
		return
	}
}

// Hotspot describes an attraction point for HotspotWalker.
type Hotspot struct {
	Center geom.Point
	Sigma  float64 // spatial spread of dwell positions around the center
	Weight float64 // relative popularity
}

// HotspotWalker moves between attraction points: it picks a hotspot with
// probability proportional to weight, samples a dwell position around it
// (Gaussian), walks there, dwells, and repeats. Fleets of hotspot walkers
// produce the persistent, heavily skewed spatial density the paper's Flatten
// operator has to undo.
type HotspotWalker struct {
	region    geom.Rect
	spots     []Hotspot
	totalW    float64
	pos, dest geom.Point
	speed     float64
	vmin      float64
	vmax      float64
	dwell     float64
	dwellLeft float64
	moving    bool
	rng       *stats.RNG
}

// NewHotspotWalker constructs a hotspot-attracted walker.
func NewHotspotWalker(region geom.Rect, spots []Hotspot, vmin, vmax, dwell float64, rng *stats.RNG) (*HotspotWalker, error) {
	if region.IsEmpty() {
		return nil, errors.New("mobility: HotspotWalker requires a non-empty region")
	}
	if len(spots) == 0 {
		return nil, errors.New("mobility: HotspotWalker requires at least one hotspot")
	}
	if vmin <= 0 || vmax < vmin {
		return nil, fmt.Errorf("mobility: invalid speed range [%g, %g]", vmin, vmax)
	}
	if rng == nil {
		return nil, errors.New("mobility: HotspotWalker requires an RNG")
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
	w := &HotspotWalker{region: region, spots: spots, totalW: total, vmin: vmin, vmax: vmax, dwell: dwell, rng: rng}
	w.pos = w.sampleDwellPoint()
	w.pickDestination()
	return w, nil
}

func (w *HotspotWalker) sampleDwellPoint() geom.Point {
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
	p := geom.Point{
		X: w.rng.Normal(s.Center.X, s.Sigma),
		Y: w.rng.Normal(s.Center.Y, s.Sigma),
	}
	return clampToRect(p, w.region)
}

func (w *HotspotWalker) pickDestination() {
	w.dest = w.sampleDwellPoint()
	w.speed = w.rng.Uniform(w.vmin, w.vmax)
	w.moving = true
}

// Position implements Walker.
func (w *HotspotWalker) Position() geom.Point { return w.pos }

// Step implements Walker.
func (w *HotspotWalker) Step(dt float64) {
	for dt > 0 {
		if !w.moving {
			if w.dwellLeft > dt {
				w.dwellLeft -= dt
				return
			}
			dt -= w.dwellLeft
			w.dwellLeft = 0
			w.pickDestination()
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
