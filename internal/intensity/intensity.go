// Package intensity defines conditional rate (intensity) functions for
// multi-dimensional point processes over (t, x, y). The paper's Eq. (1)
// linear parametric form is the primary model; the package also provides
// constant rates, Gaussian spatial hotspots (to generate the skewed arrival
// patterns the paper motivates), and a scaling combinator. Every intensity can report
// an exact or bounded integral over a spatio-temporal window — the quantity
// needed by maximum-likelihood estimation and by expected-count predictions —
// and an upper bound used by thinning-based simulation.
package intensity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Func is a conditional intensity λ(t, x, y) ≥ 0.
type Func interface {
	// Eval returns the intensity at the event coordinates.
	Eval(t, x, y float64) float64
	// IntegralOver returns ∫∫∫_w λ dt dx dy.
	IntegralOver(w geom.Window) float64
	// MaxOver returns an upper bound of λ over the window, used as the
	// dominating rate for Lewis–Shedler thinning.
	MaxOver(w geom.Window) float64
}

// BatchEvaluator is an optional extension of Func for intensities that can
// evaluate many points in one call. The hot flattening path (pmat.EvalInto)
// uses it to replace per-tuple interface dispatch with a single call per
// batch: ts, xs and ys are parallel coordinate slices and dst receives
// λ(ts[i], xs[i], ys[i]) at each index. All four slices must share a length.
type BatchEvaluator interface {
	EvalInto(dst, ts, xs, ys []float64)
}

// Constant is a homogeneous intensity λ(t,x,y) = Rate.
type Constant struct {
	Rate float64
}

// NewConstant returns a constant intensity. Negative rates are invalid.
func NewConstant(rate float64) (Constant, error) {
	if rate < 0 || math.IsNaN(rate) {
		return Constant{}, fmt.Errorf("intensity: constant rate must be non-negative, got %g", rate)
	}
	return Constant{Rate: rate}, nil
}

// Eval implements Func.
func (c Constant) Eval(_, _, _ float64) float64 { return c.Rate }

// IntegralOver implements Func: rate × volume.
func (c Constant) IntegralOver(w geom.Window) float64 { return c.Rate * w.Volume() }

// MaxOver implements Func.
func (c Constant) MaxOver(geom.Window) float64 { return c.Rate }

// EvalInto implements BatchEvaluator.
func (c Constant) EvalInto(dst, _, _, _ []float64) {
	for i := range dst {
		dst[i] = c.Rate
	}
}

// Theta holds the parameters of the paper's linear conditional rate,
// Eq. (1): λ(t,x,y;θ) = θ0 + θ1·t + θ2·x + θ3·y.
type Theta [4]float64

// Features returns the basis vector (1, t, x, y) so that
// λ = θ · Features(t,x,y).
func Features(t, x, y float64) [4]float64 { return [4]float64{1, t, x, y} }

// Linear is the paper's Eq. (1) parametric inhomogeneous intensity. Because
// a linear function can go negative, evaluation clamps at Floor (a small
// positive constant keeps log-likelihoods finite); a well-fit model on a
// window where the data live is positive throughout.
type Linear struct {
	Theta Theta
	Floor float64
}

// DefaultFloor is the positivity clamp applied to linear intensities.
const DefaultFloor = 1e-9

// NewLinear constructs a linear intensity with the default floor.
func NewLinear(theta Theta) Linear { return Linear{Theta: theta, Floor: DefaultFloor} }

// Eval implements Func.
func (l Linear) Eval(t, x, y float64) float64 {
	v := l.Theta[0] + l.Theta[1]*t + l.Theta[2]*x + l.Theta[3]*y
	if v < l.Floor {
		return l.Floor
	}
	return v
}

// EvalInto implements BatchEvaluator: one loop over the coordinate slices.
// Eval is inlined on the concrete receiver, so this is a single tight pass
// with the clamp defined in exactly one place.
func (l Linear) EvalInto(dst, ts, xs, ys []float64) {
	for i := range dst {
		dst[i] = l.Eval(ts[i], xs[i], ys[i])
	}
}

// raw returns the unclamped linear value.
func (l Linear) raw(t, x, y float64) float64 {
	return l.Theta[0] + l.Theta[1]*t + l.Theta[2]*x + l.Theta[3]*y
}

// IntegralOver implements Func. For a linear function the integral over a
// box is closed-form: volume × λ(center). The clamp is ignored, which is
// exact whenever the intensity is positive on the whole window.
func (l Linear) IntegralOver(w geom.Window) float64 {
	c := w.Rect.Center()
	mid := l.raw((w.T0+w.T1)/2, c.X, c.Y)
	v := w.Volume() * mid
	if v < 0 {
		return 0
	}
	return v
}

// MaxOver implements Func: a linear function attains its maximum at a corner
// of the box.
func (l Linear) MaxOver(w geom.Window) float64 {
	maxVal := l.Floor
	for _, t := range [2]float64{w.T0, w.T1} {
		for _, x := range [2]float64{w.Rect.MinX, w.Rect.MaxX} {
			for _, y := range [2]float64{w.Rect.MinY, w.Rect.MaxY} {
				if v := l.raw(t, x, y); v > maxVal {
					maxVal = v
				}
			}
		}
	}
	return maxVal
}

// FeatureIntegrals returns ∫ f_k over the window for the linear basis
// f = (1, t, x, y). These are the sufficient statistics of the Poisson
// log-likelihood used by the estimate package.
func FeatureIntegrals(w geom.Window) [4]float64 {
	vol := w.Volume()
	c := w.Rect.Center()
	return [4]float64{
		vol,
		vol * (w.T0 + w.T1) / 2,
		vol * c.X,
		vol * c.Y,
	}
}

// Hotspot is a spatial Gaussian bump over a constant background:
//
//	λ = Base + Amp · exp(-((x-Cx)² + (y-Cy)²) / (2σ²))
//
// Hotspots generate the skewed spatial arrivals that crowdsensing exhibits
// (sensors cluster around points of interest).
type Hotspot struct {
	Base   float64 // background rate
	Amp    float64 // peak extra rate at the hotspot center
	Cx, Cy float64 // hotspot center
	Sigma  float64 // spatial spread
}

// NewHotspot validates and constructs a hotspot intensity.
func NewHotspot(base, amp, cx, cy, sigma float64) (Hotspot, error) {
	if base < 0 || amp < 0 {
		return Hotspot{}, errors.New("intensity: hotspot base and amp must be non-negative")
	}
	if sigma <= 0 {
		return Hotspot{}, errors.New("intensity: hotspot sigma must be positive")
	}
	return Hotspot{Base: base, Amp: amp, Cx: cx, Cy: cy, Sigma: sigma}, nil
}

// Eval implements Func.
func (h Hotspot) Eval(t, x, y float64) float64 {
	dx, dy := x-h.Cx, y-h.Cy
	g := math.Exp(-(dx*dx + dy*dy) / (2 * h.Sigma * h.Sigma))
	return h.Base + h.Amp*g
}

// IntegralOver implements Func in closed form: the Gaussian over a box is a
// product of two 1-D erf differences, and it is constant in time.
func (h Hotspot) IntegralOver(w geom.Window) float64 {
	// ∫ exp(-(x-c)²/2σ²) dx = σ√(π/2)·[erf((x1-c)/(σ√2)) - erf((x0-c)/(σ√2))].
	sx := gaussSegmentIntegral(w.Rect.MinX, w.Rect.MaxX, h.Cx, h.Sigma)
	sy := gaussSegmentIntegral(w.Rect.MinY, w.Rect.MaxY, h.Cy, h.Sigma)
	return h.Base*w.Volume() + h.Amp*(sx*sy)*w.Duration()
}

func gaussSegmentIntegral(a, b, c, sigma float64) float64 {
	s := sigma * math.Sqrt2
	return sigma * math.Sqrt(math.Pi/2) * (math.Erf((b-c)/s) - math.Erf((a-c)/s))
}

// MaxOver implements Func conservatively: base + amp, the global maximum.
func (h Hotspot) MaxOver(geom.Window) float64 { return h.Base + h.Amp }

// Scale multiplies an intensity by a non-negative factor — the analytic
// counterpart of the Thin operator.
type Scale struct {
	F      Func
	Factor float64
}

// NewScale constructs a scaled intensity.
func NewScale(f Func, factor float64) (Scale, error) {
	if factor < 0 {
		return Scale{}, errors.New("intensity: scale factor must be non-negative")
	}
	if f == nil {
		return Scale{}, errors.New("intensity: scale requires a base intensity")
	}
	return Scale{F: f, Factor: factor}, nil
}

// Eval implements Func.
func (s Scale) Eval(t, x, y float64) float64 { return s.Factor * s.F.Eval(t, x, y) }

// IntegralOver implements Func.
func (s Scale) IntegralOver(w geom.Window) float64 { return s.Factor * s.F.IntegralOver(w) }

// MaxOver implements Func.
func (s Scale) MaxOver(w geom.Window) float64 { return s.Factor * s.F.MaxOver(w) }

// NumericIntegral estimates ∫ λ over the window with a midpoint rule on an
// n×n×n lattice. It is the reference oracle the tests compare analytic
// integrals against.
func NumericIntegral(f Func, w geom.Window, n int) float64 {
	if n <= 0 {
		n = 16
	}
	dt := w.Duration() / float64(n)
	dx := w.Rect.Width() / float64(n)
	dy := w.Rect.Height() / float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		t := w.T0 + (float64(i)+0.5)*dt
		for j := 0; j < n; j++ {
			x := w.Rect.MinX + (float64(j)+0.5)*dx
			for k := 0; k < n; k++ {
				y := w.Rect.MinY + (float64(k)+0.5)*dy
				sum += f.Eval(t, x, y)
			}
		}
	}
	return sum * dt * dx * dy
}
