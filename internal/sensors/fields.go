// Package sensors simulates the mobile sensor fleet of a crowdsensing
// deployment: the ground-truth attribute fields being sensed (a moving-storm
// rain field and a smooth temperature field for the paper's two running
// examples), the sensors themselves (position via a mobility walker,
// incentive-dependent probabilistic response with latency, GPS error), and
// the fleet container the request/response handler samples from.
package sensors

import (
	"errors"
	"math"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Field is a spatio-temporal ground-truth attribute: the value a perfect
// sensor at (x, y) would report at time t.
type Field interface {
	// Value returns the attribute value at the given space-time point.
	Value(t, x, y float64) float64
	// Attr returns the attribute name this field backs.
	Attr() string
}

// Storm is one moving rain cell of a RainField.
type Storm struct {
	X0, Y0 float64 // center at t = 0
	VX, VY float64 // drift velocity
	Radius float64 // rain radius
}

// RainField is the boolean human-sensed attribute A⟨1⟩ = rain of the
// paper's first running example: it rains at (t, x, y) when the point lies
// inside any storm cell. Storms drift linearly and wrap around the region,
// so rain coverage stays roughly constant over long simulations.
type RainField struct {
	region geom.Rect
	storms []Storm
}

// NewRainField creates a rain field over the region with the given storms.
func NewRainField(region geom.Rect, storms []Storm) (*RainField, error) {
	if region.IsEmpty() {
		return nil, errors.New("sensors: NewRainField requires a non-empty region")
	}
	for _, s := range storms {
		if s.Radius <= 0 {
			return nil, errors.New("sensors: storm radius must be positive")
		}
	}
	return &RainField{region: region, storms: storms}, nil
}

// Attr implements Field.
func (f *RainField) Attr() string { return "rain" }

// Value implements Field: 1 when raining, 0 otherwise.
func (f *RainField) Value(t, x, y float64) float64 {
	for _, s := range f.storms {
		cx := wrap(s.X0+s.VX*t, f.region.MinX, f.region.MaxX)
		cy := wrap(s.Y0+s.VY*t, f.region.MinY, f.region.MaxY)
		if math.Hypot(x-cx, y-cy) <= s.Radius {
			return 1
		}
	}
	return 0
}

// wrap maps v into [lo, hi) periodically.
func wrap(v, lo, hi float64) float64 {
	width := hi - lo
	if width <= 0 {
		return lo
	}
	v = math.Mod(v-lo, width)
	if v < 0 {
		v += width
	}
	return lo + v
}

// TempField is the sensor-sensed real attribute A⟨2⟩ = temp of the paper's
// second running example: a base temperature plus a spatial gradient, a
// diurnal oscillation, and white measurement noise.
type TempField struct {
	Base     float64 // mean temperature
	GradX    float64 // east-west gradient (degrees per unit x)
	GradY    float64 // north-south gradient
	Diurnal  float64 // amplitude of the daily cycle
	Period   float64 // length of the daily cycle in time units
	NoiseStd float64 // sensor noise standard deviation
	noiseRNG *stats.RNG
}

// NewTempField creates a temperature field; rng drives measurement noise
// and may be nil for a noise-free field.
func NewTempField(base, gradX, gradY, diurnal, period, noiseStd float64, rng *stats.RNG) (*TempField, error) {
	if period <= 0 {
		return nil, errors.New("sensors: NewTempField requires period > 0")
	}
	if noiseStd < 0 {
		return nil, errors.New("sensors: NewTempField requires noiseStd >= 0")
	}
	if noiseStd > 0 && rng == nil {
		return nil, errors.New("sensors: NewTempField with noise requires an RNG")
	}
	return &TempField{Base: base, GradX: gradX, GradY: gradY, Diurnal: diurnal, Period: period, NoiseStd: noiseStd, noiseRNG: rng}, nil
}

// Attr implements Field.
func (f *TempField) Attr() string { return "temp" }

// Value implements Field.
func (f *TempField) Value(t, x, y float64) float64 {
	v := f.Base + f.GradX*x + f.GradY*y + f.Diurnal*math.Sin(2*math.Pi*t/f.Period)
	if f.NoiseStd > 0 {
		v += f.noiseRNG.Normal(0, f.NoiseStd)
	}
	return v
}

// EncodeState appends the noise generator's state to w (nothing for a
// noise-free field), so a restored field draws the same noise.
func (f *TempField) EncodeState(w *codec.Writer) {
	if f.noiseRNG != nil {
		f.noiseRNG.EncodeState(w)
	}
}

// DecodeState restores what EncodeState wrote.
func (f *TempField) DecodeState(r *codec.Reader) {
	if f.noiseRNG != nil {
		f.noiseRNG.DecodeState(r)
	}
}

// ConstantField reports a fixed value; useful in tests.
type ConstantField struct {
	Name string
	V    float64
}

// Attr implements Field.
func (f ConstantField) Attr() string { return f.Name }

// Value implements Field.
func (f ConstantField) Value(_, _, _ float64) float64 { return f.V }
