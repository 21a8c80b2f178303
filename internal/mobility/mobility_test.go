package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

func region() geom.Rect { return geom.NewRect(0, 0, 10, 10) }

func TestRandomWaypointValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := NewRandomWaypoint(geom.Rect{}, 1, 2, 0, rng); err == nil {
		t.Error("empty region should error")
	}
	if _, err := NewRandomWaypoint(region(), 0, 2, 0, rng); err == nil {
		t.Error("zero vmin should error")
	}
	if _, err := NewRandomWaypoint(region(), 2, 1, 0, rng); err == nil {
		t.Error("vmax < vmin should error")
	}
	if _, err := NewRandomWaypoint(region(), 1, 2, -1, rng); err == nil {
		t.Error("negative pause should error")
	}
	if _, err := NewRandomWaypoint(region(), 1, 2, 0, nil); err == nil {
		t.Error("nil RNG should error")
	}
}

func TestRandomWaypointStaysInRegion(t *testing.T) {
	w, err := NewRandomWaypoint(region(), 0.5, 2, 0.5, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w.Step(0.3)
		p := w.Position()
		if p.X < 0 || p.X > 10 || p.Y < 0 || p.Y > 10 {
			t.Fatalf("walker escaped: %v", p)
		}
	}
}

func TestRandomWaypointActuallyMoves(t *testing.T) {
	w, _ := NewRandomWaypoint(region(), 1, 2, 0, stats.NewRNG(3))
	start := w.Position()
	total := 0.0
	prev := start
	for i := 0; i < 100; i++ {
		w.Step(0.5)
		p := w.Position()
		total += math.Hypot(p.X-prev.X, p.Y-prev.Y)
		prev = p
	}
	if total < 10 {
		t.Fatalf("walker barely moved: %g", total)
	}
}

func TestRandomWaypointSpeedBound(t *testing.T) {
	w, _ := NewRandomWaypoint(region(), 1, 2, 0, stats.NewRNG(4))
	prev := w.Position()
	for i := 0; i < 500; i++ {
		dt := 0.1
		w.Step(dt)
		p := w.Position()
		d := math.Hypot(p.X-prev.X, p.Y-prev.Y)
		if d > 2*dt+1e-9 {
			t.Fatalf("step %d moved %g > vmax·dt", i, d)
		}
		prev = p
	}
}

func TestRandomWaypointPause(t *testing.T) {
	// With a long pause and tiny steps, the walker must sometimes stand
	// still after arriving.
	w, _ := NewRandomWaypoint(region(), 5, 5, 10, stats.NewRNG(5))
	still := 0
	prev := w.Position()
	for i := 0; i < 2000; i++ {
		w.Step(0.05)
		p := w.Position()
		if p == prev {
			still++
		}
		prev = p
	}
	if still == 0 {
		t.Fatal("walker never paused despite 10-unit pause time")
	}
}

func TestHotspotWalkerValidation(t *testing.T) {
	rng := stats.NewRNG(6)
	spots := []Hotspot{{Center: geom.Point{X: 5, Y: 5}, Sigma: 1, Weight: 1}}
	if _, err := NewHotspotWalker(geom.Rect{}, spots, 1, 2, 0, rng); err == nil {
		t.Error("empty region should error")
	}
	if _, err := NewHotspotWalker(region(), nil, 1, 2, 0, rng); err == nil {
		t.Error("no hotspots should error")
	}
	if _, err := NewHotspotWalker(region(), []Hotspot{{Sigma: 1, Weight: 0}}, 1, 2, 0, rng); err == nil {
		t.Error("zero weight should error")
	}
	if _, err := NewHotspotWalker(region(), []Hotspot{{Sigma: 0, Weight: 1}}, 1, 2, 0, rng); err == nil {
		t.Error("zero sigma should error")
	}
	if _, err := NewHotspotWalker(region(), spots, 0, 2, 0, rng); err == nil {
		t.Error("bad speeds should error")
	}
	if _, err := NewHotspotWalker(region(), spots, 1, 2, 0, nil); err == nil {
		t.Error("nil RNG should error")
	}
	if _, err := NewHotspotWalker(region(), spots, 1, 2, -1, rng); err == nil {
		t.Error("negative dwell should error")
	}
}

func TestHotspotWalkerConcentratesAroundSpot(t *testing.T) {
	spot := Hotspot{Center: geom.Point{X: 2, Y: 2}, Sigma: 0.5, Weight: 1}
	rng := stats.NewRNG(7)
	near, far := 0, 0
	// A population of walkers sampled at a fixed time should cluster.
	for i := 0; i < 200; i++ {
		w, err := NewHotspotWalker(region(), []Hotspot{spot}, 1, 2, 5, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 20; s++ {
			w.Step(0.5)
		}
		p := w.Position()
		if math.Hypot(p.X-2, p.Y-2) < 2 {
			near++
		} else {
			far++
		}
	}
	if near <= 2*far {
		t.Fatalf("no clustering: near=%d far=%d", near, far)
	}
}

func TestHotspotWalkerStaysInRegion(t *testing.T) {
	// Hotspot near the corner: Gaussian dwell points must be clamped.
	spot := Hotspot{Center: geom.Point{X: 0.1, Y: 0.1}, Sigma: 3, Weight: 1}
	w, err := NewHotspotWalker(region(), []Hotspot{spot}, 1, 3, 0.2, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		w.Step(0.25)
		p := w.Position()
		if !region().Contains(p) {
			t.Fatalf("walker escaped: %v", p)
		}
	}
}

func TestHotspotWalkerMultipleSpots(t *testing.T) {
	spots := []Hotspot{
		{Center: geom.Point{X: 2, Y: 2}, Sigma: 0.3, Weight: 3},
		{Center: geom.Point{X: 8, Y: 8}, Sigma: 0.3, Weight: 1},
	}
	rng := stats.NewRNG(9)
	nearA, nearB := 0, 0
	for i := 0; i < 300; i++ {
		w, _ := NewHotspotWalker(region(), spots, 2, 4, 10, rng.Fork())
		for s := 0; s < 10; s++ {
			w.Step(1)
		}
		p := w.Position()
		if math.Hypot(p.X-2, p.Y-2) < 2.5 {
			nearA++
		}
		if math.Hypot(p.X-8, p.Y-8) < 2.5 {
			nearB++
		}
	}
	if nearA <= nearB {
		t.Fatalf("weights ignored: nearA=%d nearB=%d", nearA, nearB)
	}
	if nearB == 0 {
		t.Fatal("lighter hotspot never visited")
	}
}
