package estimate

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
)

type oracleOptions struct {
	MaxIter   int
	Tol       float64 // absolute gradient-norm tolerance (default 1e-8)
	RateFloor float64
	Warmstart *intensity.Theta
	NoLogLik  bool
}

func (o oracleOptions) withDefaults() oracleOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.RateFloor <= 0 {
		o.RateFloor = intensity.DefaultFloor
	}
	return o
}

type oracleResult struct {
	Theta      intensity.Theta
	LogLik     float64
	Iterations int
	Converged  bool
}

// oracleFitMLE is the solver FitMLE used before the window-centred Newton
// kernel, kept verbatim (with the option and result types it needed) as the
// reference the differential tests compare against: Newton in absolute
// coordinates, a Σ log λ line search, an absolute gradient-norm stop.
func oracleFitMLE(events []mdpp.Event, w geom.Window, opts oracleOptions) (oracleResult, error) {
	opts = opts.withDefaults()
	if err := w.Validate(); err != nil {
		return oracleResult{}, fmt.Errorf("estimate: FitMLE: %w", err)
	}
	if len(events) < 4 {
		return oracleResult{}, errors.New("estimate: FitMLE requires at least 4 events")
	}
	fi := intensity.FeatureIntegrals(w)
	// Initialize at the homogeneous MLE (θ0 = n / volume, slopes zero) —
	// strictly feasible, and the clamped log-likelihood is concave, so
	// damped Newton converges globally. A warm start is tried first with a
	// single gradient test: on a slowly drifting stream it usually passes
	// outright, costing one gradHess and zero log evaluations. A stale warm
	// start falls back to whichever of the two initializers has the higher
	// likelihood, so it can never hurt the fit.
	theta := intensity.Theta{float64(len(events)) / w.Volume(), 0, 0, 0}
	ll := math.NaN()
	if opts.Warmstart != nil {
		warm := *opts.Warmstart
		grad, _ := gradHess(warm, events, fi, opts.RateFloor)
		norm := 0.0
		for _, g := range grad {
			norm += g * g
		}
		if math.Sqrt(norm) < opts.Tol {
			if opts.NoLogLik {
				return oracleResult{Theta: warm, LogLik: math.NaN(), Iterations: 0, Converged: true}, nil
			}
			return oracleResult{Theta: warm, LogLik: LogLikelihood(warm, events, w), Iterations: 0, Converged: true}, nil
		}
		wll, cll := LogLikelihood(warm, events, w), LogLikelihood(theta, events, w)
		if wll > cll {
			theta, ll = warm, wll
		} else {
			ll = cll
		}
	}
	finish := func(iter int, converged bool) oracleResult {
		if math.IsNaN(ll) && !opts.NoLogLik {
			ll = LogLikelihood(theta, events, w)
		}
		return oracleResult{Theta: theta, LogLik: ll, Iterations: iter, Converged: converged}
	}
	var iter int
	for iter = 0; iter < opts.MaxIter; iter++ {
		grad, hess := gradHess(theta, events, fi, opts.RateFloor)
		norm := 0.0
		for _, g := range grad {
			norm += g * g
		}
		if math.Sqrt(norm) < opts.Tol {
			return finish(iter, true), nil
		}
		// Newton step: solve (−H)·δ = grad, i.e. ascend the concave surface.
		var negH [4][4]float64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				negH[i][j] = -hess[i][j]
			}
			negH[i][i] += 1e-12 // tiny ridge for numerical safety
		}
		delta, err := solve4(negH, grad)
		if err != nil {
			return oracleResult{}, fmt.Errorf("estimate: FitMLE: %w", err)
		}
		// Backtracking line search keeps the step inside the region where
		// the likelihood improves; the baseline is computed on first need.
		// Halving stops after 12 steps: below 2⁻¹² of the Newton step any
		// remaining improvement is under float noise, and each futile probe
		// costs a full Σ log λ pass — the dominant fit cost near the optimum.
		if math.IsNaN(ll) {
			ll = LogLikelihood(theta, events, w)
		}
		step := 1.0
		improved := false
		for ls := 0; ls < 12; ls++ {
			var cand intensity.Theta
			for k := 0; k < 4; k++ {
				cand[k] = theta[k] + step*delta[k]
			}
			candLL := LogLikelihood(cand, events, w)
			if candLL > ll {
				theta, ll = cand, candLL
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			return finish(iter, true), nil
		}
	}
	return finish(iter, false), nil
}

// gradHess returns the gradient and Hessian of the log-likelihood at theta.
// grad_k = Σ f_k(p_i)/λ_i − ∫f_k ; hess_{jk} = −Σ f_j f_k / λ_i².
func gradHess(theta intensity.Theta, events []mdpp.Event, fi [4]float64, floor float64) ([4]float64, [4][4]float64) {
	var grad [4]float64
	var hess [4][4]float64
	for _, e := range events {
		f := intensity.Features(e.T, e.X, e.Y)
		lam := theta[0]*f[0] + theta[1]*f[1] + theta[2]*f[2] + theta[3]*f[3]
		if lam < floor {
			lam = floor
		}
		inv := 1 / lam
		inv2 := inv * inv
		for j := 0; j < 4; j++ {
			grad[j] += f[j] * inv
			for k := j; k < 4; k++ {
				hess[j][k] -= f[j] * f[k] * inv2
			}
		}
	}
	for j := 0; j < 4; j++ {
		grad[j] -= fi[j]
		for k := 0; k < j; k++ {
			hess[j][k] = hess[k][j]
		}
	}
	return grad, hess
}

// solve4 solves the 4×4 linear system A·x = b using Gaussian elimination
// with partial pivoting. It is the only linear algebra the Newton MLE needs,
// so a dedicated routine keeps the package dependency-free.
func solve4(a [4][4]float64, b [4]float64) ([4]float64, error) {
	const n = 4
	// Augmented matrix.
	var m [n][n + 1]float64
	for i := 0; i < n; i++ {
		copy(m[i][:n], a[i][:])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for row := col + 1; row < n; row++ {
			if abs(m[row][col]) > abs(m[pivot][col]) {
				pivot = row
			}
		}
		if abs(m[pivot][col]) < 1e-14 {
			return [4]float64{}, errors.New("estimate: singular system")
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for row := col + 1; row < n; row++ {
			factor := m[row][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[row][k] -= factor * m[col][k]
			}
		}
	}
	// Back substitution.
	var x [4]float64
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for k := i + 1; k < n; k++ {
			sum -= m[i][k] * x[k]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestFitMLEMatchesOracle is the differential test against the solver this
// package used to ship: over seeded batches of every size the F-operator
// sees and the three rate shapes that stress a fit differently (flat,
// sloped, and a rate that nearly vanishes in one corner of the window), at
// window offsets where the oracle's absolute coordinates still converge,
// the centred kernel must reach at least the oracle's likelihood and the
// same θ.
func TestFitMLEMatchesOracle(t *testing.T) {
	shapes := map[string]Centred{
		"homogeneous": {1, 0, 0, 0},
		"sloped":      {1, 0.4, -0.3, 0.2},
		"corner":      {1, 0.33, 0.33, 0.33},
	}
	compared := 0
	for _, n := range []float64{8, 32, 128, 4096} {
		for name, shape := range shapes {
			for _, t0 := range []float64{0, 1000} {
				for seed := int64(0); seed < 12; seed++ {
					w := geom.Window{T0: t0, T1: t0 + 1, Rect: geom.NewRect(0, 0, 4, 4)}
					truth := shape
					for k := range truth {
						truth[k] *= n / w.Volume()
					}
					ev := sampleLinear(t, truth.Theta(w), w, 1000*int64(n)+seed)
					if len(ev) < 4 {
						continue
					}
					want, err := oracleFitMLE(ev, w, oracleOptions{})
					if err != nil {
						continue // a batch the oracle's elimination calls singular
					}
					got, err := FitMLE(ev, w)
					if err != nil {
						t.Fatal(err)
					}
					id := fmt.Sprintf("n=%g %s t0=%g seed=%d", n, name, t0, seed)
					gotC, wantC := centredOf(got.Theta, w), centredOf(want.Theta, w)
					// Only a feasible point where the oracle's gradient vanished
					// is an optimum to agree on. It also reports Converged when
					// twelve halvings found nothing better: on a small batch
					// whose likelihood is unbounded (every event on one side of
					// the window) that is wherever it gave up, and on a large
					// steep one its first Newton steps push some events' rates
					// under the floor, where the clamp hides them from the
					// gradient, and it settles on the optimum of the rest. The
					// decrement at its θ (the kernel's sums are checked against
					// its gradHess in TestPassMatchesOracleGradHess) tells the cases apart.
					fr, _ := newFrame(w)
					ws := eventPoints(&fr, ev).pass(wantC, intensity.DefaultFloor, nil)
					_, dec, ok := newtonStep(&ws.h, &[4]float64{ws.g[0] - fr.vol, ws.g[1], ws.g[2], ws.g[3]})
					if !want.Converged || ws.low || !ok || dec > 1e-10*float64(len(ev)) {
						if got.Converged && centredLogLik(gotC, ev, w) < centredLogLik(wantC, ev, w)-1e-9*float64(len(ev)) {
							t.Errorf("%s: converged below where the oracle gave up", id)
						}
						continue
					}
					compared++
					if !got.Converged {
						t.Errorf("%s: not converged where the oracle found an optimum", id)
					}
					if gl, wl := centredLogLik(gotC, ev, w), centredLogLik(wantC, ev, w); gl < wl-1e-9*float64(len(ev)) {
						t.Errorf("%s: ℓ = %.12g, oracle reached %.12g", id, gl, wl)
					}
					// θ is compared in the metric the stop rules control. A solver
					// stops when the likelihood still to be gained — to second
					// order half the decrement δᵀ(−H)δ of its distance δ to the
					// optimum — is small, and that bounds δ along −H's strong
					// directions only: on a batch whose −H is near-singular (eight
					// events can lie close to a plane) a point inside the margin is
					// far from the optimum in Euclidean terms, by an amount that
					// depends on the sample drawn. So the two θ must lie within the
					// two margins of each other in the −H norm: √(Tol·n) for the
					// kernel's stop rule, √(1e-10·n) for the oracle points the
					// decrement test above lets through, doubled because −H is
					// taken at one of the two points. On a well-conditioned batch
					// that is the relative 1e-5 this test used to pin.
					nEv := float64(len(ev))
					bound := 2 * (math.Sqrt(tol*nEv) + math.Sqrt(1e-10*nEv))
					if d := hNorm(&ws.h, gotC, wantC); d > bound {
						t.Errorf("%s: θ %v, oracle %v (%g apart in the −H norm, want ≤ %g; %g centred)",
							id, got.Theta, want.Theta, d, bound, centredDiff(gotC, wantC))
					}
				}
			}
		}
	}
	if compared < 200 {
		t.Fatalf("only %d batches compared, want at least 200", compared)
	}
}

// hNorm is √((a−b)ᵀ·H·(a−b)) for H given as sums.h stores it: the upper
// triangle by rows.
func hNorm(h *[10]float64, a, b Centred) float64 {
	var d [4]float64
	for k := range d {
		d[k] = a[k] - b[k]
	}
	full := [4][4]float64{
		{h[0], h[1], h[2], h[3]},
		{h[1], h[4], h[5], h[6]},
		{h[2], h[5], h[7], h[8]},
		{h[3], h[6], h[8], h[9]},
	}
	q := 0.0
	for i := range d {
		for j := range d {
			q += d[i] * full[i][j] * d[j]
		}
	}
	return math.Sqrt(math.Max(q, 0))
}

func norm4(v [4]float64) float64 {
	return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2] + v[3]*v[3])
}
