package mobility

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/stats"
)

// pathDigest pins every walker path bit for bit: the fleet snapshots and
// every simulated golden depend on the order in which a walker draws its
// stops and speeds, and on the bytes of its encoded state.
const pathDigest = "79976c0dfb597974ee81178f6ce6d7f8e15cd767ee222b540edfe8276b125f5d"

// pathWalker is what the path test drives of a walker.
type pathWalker interface {
	Position() geom.Point
	Step(dt float64)
	EncodeState(w *codec.Writer)
	DecodeState(r *codec.Reader)
}

// walkerState returns w's encoded state, checksum included.
func walkerState(t *testing.T, w pathWalker) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewWriter(&buf)
	w.EncodeState(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hashPath steps w through steps, hashing its position after each one and
// its encoded state every tenth. Halfway it moves the walk onto fresh, a
// walker of the same kind on another generator, by its encoded state.
func hashPath(t *testing.T, h hash.Hash, w, fresh pathWalker, steps []float64) {
	t.Helper()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, dt := range steps {
		if i == len(steps)/2 {
			r, err := codec.Open(walkerState(t, w))
			if err != nil {
				t.Fatal(err)
			}
			fresh.DecodeState(r)
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("restoring a walker: err %v, %d bytes left", r.Err(), r.Remaining())
			}
			w = fresh
		}
		w.Step(dt)
		p := w.Position()
		put(p.X)
		put(p.Y)
		if i%10 == 0 {
			h.Write(walkerState(t, w))
		}
	}
}

// TestWalkerPathsPinned steps both kinds of walker over several seeds and
// dwell times, with steps shorter than a leg and steps spanning several
// legs, and checks positions and encoded states against pathDigest.
func TestWalkerPathsPinned(t *testing.T) {
	reg := geom.NewRect(0, 0, 10, 10)
	spots := []Hotspot{
		{Center: geom.Point{X: 2, Y: 7}, Sigma: 1.5, Weight: 3},
		{Center: geom.Point{X: 9.8, Y: 0.3}, Sigma: 2, Weight: 1}, // near a corner: stops get clamped
	}
	// Legs are a few units long at speeds 1–2: 0.05 and 0.4 end inside a
	// leg, 2.5 crosses about one stop, 23 crosses several.
	dts := []float64{0.05, 0.4, 2.5, 0.05, 23, 0.4}
	steps := make([]float64, 200)
	for i := range steps {
		steps[i] = dts[i%len(dts)]
	}
	h := sha256.New()
	for seed := int64(1); seed <= 8; seed++ {
		for _, dwell := range []float64{0, 0.5, 3} {
			uniform := func(s int64) pathWalker {
				w, err := NewRandomWaypoint(reg, 1, 2, dwell, stats.NewRNG(s))
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			hotspot := func(s int64) pathWalker {
				w, err := NewHotspotWalker(reg, spots, 1, 2, dwell, stats.NewRNG(s))
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			for _, build := range []func(int64) pathWalker{uniform, hotspot} {
				w := build(seed)
				h.Write(walkerState(t, w))
				hashPath(t, h, w, build(seed+1000), steps)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pathDigest {
		t.Fatalf("walker paths digest %s, want %s", got, pathDigest)
	}
}
