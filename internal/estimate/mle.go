// Package estimate fits the paper's Eq. (1) linear conditional rate
// λ(t,x,y;θ) = θ0 + θ1·t + θ2·x + θ3·y to observed event batches. It
// implements the two techniques the paper cites: batch maximum-likelihood
// estimation (Newton's method on the exact inhomogeneous-Poisson
// log-likelihood, whose integral term is closed-form for a linear intensity
// over a box, in window-centred coordinates) — FitBatch is what every
// F-operator runs — and online stochastic gradient descent over time slices
// (Bottou-style decaying step sizes), which experiment E9 compares with it
// through FitSGD. Neither takes options: the iteration bound, tolerance,
// step sizes and rate floor are the package's constants.
//
// A fit's cost is its passes over the batch. A pass computes every point's
// reciprocal rate in a Go loop and then sums the rows (1, u, v, w) at those
// rates into the gradient and the Hessian; on amd64 CPUs with AVX2 an
// assembly kernel does the summing, four sums to a register, with the same
// products added in the same order as the Go loop that runs everywhere else,
// so every fit is the same bits on either.
package estimate

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stream"
)

const (
	// maxIter bounds the Newton iterations of one fit.
	maxIter = 50
	// tol is the stop rule's tolerance per event: the fit has converged when
	// the Newton decrement gᵀ(−H)⁻¹g — twice the likelihood still to be
	// gained, to second order, in any parametrization — is at most tol·n.
	tol = 1e-12
)

// Result is the outcome of an MLE fit.
type Result struct {
	Theta      intensity.Theta
	Iterations int
	Converged  bool
}

// LogLikelihood evaluates the inhomogeneous-Poisson log-likelihood
// ℓ(θ) = Σ_i log λ(p_i;θ) − ∫_w λ(·;θ) for a linear intensity. The solver
// never calls it; tests do.
func LogLikelihood(theta intensity.Theta, events []mdpp.Event, w geom.Window) float64 {
	lin := intensity.NewLinear(theta)
	ll := 0.0
	for _, e := range events {
		ll += math.Log(lin.Eval(e.T, e.X, e.Y))
	}
	fi := intensity.FeatureIntegrals(w)
	for k := 0; k < 4; k++ {
		ll -= theta[k] * fi[k]
	}
	return ll
}

// Centred holds Eq. (1)'s parameters in the coordinates of one window:
// λ = c0 + c1·u + c2·v + c3·w, where u, v, w ∈ [−1, 1] are t, x, y measured
// from the window's centre in units of its half-widths. c0 is the mean rate
// over the window and c1..c3 the rate's swing across it, so a Centred keeps
// its meaning when the window moves: it is how an F-operator carries one
// batch's optimum to the next, and the only coordinates the solver works in
// (the three slope features integrate to zero over the window and are O(1)
// at every event, however far the window is from the origin).
type Centred [4]float64

// centre returns w's centre and half-widths along t, x, y.
func centre(w geom.Window) (mid, half [3]float64) {
	c := w.Rect.Center()
	return [3]float64{(w.T0 + w.T1) / 2, c.X, c.Y},
		[3]float64{w.Duration() / 2, w.Rect.Width() / 2, w.Rect.Height() / 2}
}

// Theta expresses c, given in w's centred coordinates, as Eq. (1)'s absolute
// θ. Far from the origin θ0 is the difference of large terms; evaluate rates
// from the Centred form (or take them from the fit) when that matters.
func (c Centred) Theta(w geom.Window) intensity.Theta {
	mid, half := centre(w)
	theta := intensity.Theta{c[0]}
	for k := range mid {
		theta[k+1] = c[k+1] / half[k]
		theta[0] -= theta[k+1] * mid[k]
	}
	return theta
}

// frame is what a pass needs of a window: its centre, reciprocal
// half-widths and volume.
type frame struct {
	ct, cx, cy float64
	st, sx, sy float64
	vol        float64
}

func newFrame(w geom.Window) (frame, error) {
	if err := w.Validate(); err != nil {
		return frame{}, err
	}
	mid, half := centre(w)
	f := frame{
		ct: mid[0], cx: mid[1], cy: mid[2],
		st: 1 / half[0], sx: 1 / half[1], sy: 1 / half[2],
		vol: w.Volume(),
	}
	for _, v := range [...]float64{f.ct, f.cx, f.cy, f.st, f.sx, f.sy, f.vol, 1 / f.vol} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return frame{}, fmt.Errorf("window %v is outside the representable range", w)
		}
	}
	return f, nil
}

// points is the solver's view of a batch: one row (1, u, v, w) per point —
// t, x, y measured from the window's centre in half-widths, after the
// constant feature — normalised once per fit, and a column that receives
// the reciprocal rates of a pass when the caller keeps none of its own. A
// pass reads 32 bytes per point and nothing else, wherever the points came
// from, and the row is the feature vector f_i its sums are built from.
type points struct {
	rows  [][4]float64
	rates []float64
}

// pointsPool recycles the rows and rate columns of finished fits.
var pointsPool = sync.Pool{New: func() any { return new(points) }}

// borrowPoints returns room for n points; the caller releases it after the
// fit.
func borrowPoints(n int) *points {
	p := pointsPool.Get().(*points)
	if cap(p.rows) < n {
		p.rows, p.rates = make([][4]float64, n), make([]float64, n)
	}
	p.rows, p.rates = p.rows[:n], p.rates[:n]
	return p
}

func (p *points) release() { pointsPool.Put(p) }

func (p points) len() int { return len(p.rows) }

// set stores the point (t, x, y) as point i, in fr's coordinates.
func (p points) set(i int, fr *frame, t, x, y float64) {
	p.rows[i] = [4]float64{1, (t - fr.ct) * fr.st, (x - fr.cx) * fr.sx, (y - fr.cy) * fr.sy}
}

// setEvents fills the rows from events (len p.len()).
func (p points) setEvents(fr *frame, events []mdpp.Event) {
	for i := range events {
		e := &events[i]
		p.set(i, fr, e.T, e.X, e.Y)
	}
}

// setTuples fills the rows from tuples (len p.len()).
func (p points) setTuples(fr *frame, tuples []stream.Tuple) {
	for i := range tuples {
		tp := &tuples[i]
		p.set(i, fr, tp.T, tp.X, tp.Y)
	}
}

// sums is what one pass over the batch at a point c yields: everything the
// Newton iteration and Eq. (3) need there.
type sums struct {
	g [4]float64  // Σ f_i/λ_i over f = (1, u, v, w); g[0] is Eq. (3)'s λc
	h [10]float64 // Σ f_i f_iᵀ/λ_i², upper triangle by rows: −Hessian
	// low reports that some λ_i was below the floor (or not a number) and was
	// clamped: c is outside the region where the likelihood is smooth.
	low bool
}

// chunk bounds the points one accumulate call sums: the kernel is assembly,
// which the scheduler cannot preempt, so a huge batch is summed in slices.
const chunk = 4096

// pass evaluates the batch at c. inv, when non-nil, receives 1/λ_i for every
// point (clamped rates included), so the last pass of a fit leaves the
// reciprocal rates of the returned optimum behind. A Go loop computes the
// rates, slice by slice, and accumulate sums each slice's rows with them.
func (p points) pass(c Centred, floor float64, inv []float64) sums {
	var s sums
	rates := p.rates
	if inv != nil {
		rates = inv
	}
	rates = rates[:len(p.rows)]
	low := false
	for lo := 0; lo < len(p.rows); lo += chunk {
		rows := p.rows[lo:min(lo+chunk, len(p.rows))]
		rs := rates[lo : lo+len(rows)]
		for i := range rows {
			row := &rows[i]
			lam := c[0] + c[1]*row[1] + c[2]*row[2] + c[3]*row[3]
			if !(lam >= floor) {
				low = true
				lam = floor
			}
			rs[i] = 1 / lam
		}
		accumulate(&s.g, &s.h, rows, rs)
	}
	s.low = low
	return s
}

// newtonStep solves (−H)·δ = g by Cholesky factorization and returns δ with
// the Newton decrement gᵀ(−H)⁻¹g = gᵀδ ≥ 0. ok is false when −H is not
// positive definite to working precision: the batch does not determine all
// four parameters (fewer than four distinct positions, or all on a plane).
func newtonStep(h *[10]float64, g *[4]float64) (delta [4]float64, dec float64, ok bool) {
	a := [4][4]float64{
		{h[0], h[1], h[2], h[3]},
		{h[1], h[4], h[5], h[6]},
		{h[2], h[5], h[7], h[8]},
		{h[3], h[6], h[8], h[9]},
	}
	var l [4][4]float64
	for j := 0; j < 4; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if !(d > 1e-12*a[j][j]) {
			return delta, 0, false
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < 4; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	var y [4]float64
	for i := 0; i < 4; i++ {
		s := g[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
		dec += y[i] * y[i]
	}
	for i := 3; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < 4; k++ {
			s -= l[k][i] * delta[k]
		}
		delta[i] = s / l[i][i]
	}
	return delta, dec, true
}

// fit is the solver's outcome in centred coordinates.
type fit struct {
	c          Centred
	lambdaC    float64 // Σ 1/λ_i at c, rates clamped at the floor
	iterations int
	converged  bool
	passes     int // passes over the batch
}

// maxProbes bounds the step-length search of one Newton iteration. Every
// rejected probe at least halves the step (or shrinks it by the secant
// rule), so running out means the iterate sits against the feasibility
// boundary and no representable step helps.
const maxProbes = 12

// overshoot is how far past the maximum along δ an accepted step may land,
// as a fraction of the directional derivative it started from: a step is
// taken when g(c+sδ)·δ ≥ −overshoot·g(c)·δ. The likelihood is concave, so it
// rises along δ for as long as that derivative is non-negative; the margin
// admits the full Newton step when it lands a hair beyond the maximum — it
// still shrank the derivative at least fourfold — instead of spending
// another pass to trim it.
const overshoot = 0.25

// solve maximizes the Poisson log-likelihood of p, on a window of volume vol,
// from start (nil: the homogeneous rate), in at most iters Newton iterations;
// every per-point rate is floored at intensity.DefaultFloor. A start is used
// wherever it is feasible (every point's rate at or above the floor); an
// infeasible one costs one pass and is ignored. In centred coordinates
// ℓ(c) = Σ log λ_i − c0·vol, so the gradient is (g0 − vol, g1, g2, g3) and
// −H is sums.h; every evaluation point costs one pass and no logarithm. A
// step length s along the Newton direction δ is judged by the directional
// derivative at c+sδ (see overshoot); a rejected probe that was feasible
// overshot the maximum along δ and the secant through the two derivatives
// places the next one, an infeasible probe halves s. The accepted probe's
// sums are the next iteration's gradient and Hessian, so a fit costs one
// pass per iteration plus one, and the last pass — always at the returned c
// — is the one that filled inv.
//
// A batch that cannot be fitted — the homogeneous start itself infeasible,
// or −H singular — yields the homogeneous rate, not converged. So does a fit
// from a feasible start that stops short of converging: ascent promises no
// more than the likelihood it started from, which below the homogeneous
// rate's is worse than no fit at all (a cold fit that stops short is returned
// as it stands: it started there).
func (p points) solve(vol float64, start *Centred, iters int, inv []float64) fit {
	n := float64(p.len())
	cold := Centred{n / vol, 0, 0, 0}
	out := fit{c: cold}
	var s sums
	eval := func(c Centred) sums {
		out.passes++
		return p.pass(c, intensity.DefaultFloor, inv)
	}
	warm := false
	if start != nil {
		out.c = *start
		s = eval(out.c)
		warm = !s.low
	}
	if !warm {
		out.c = cold
		s = eval(out.c)
	}
	for !s.low {
		g := [4]float64{s.g[0] - vol, s.g[1], s.g[2], s.g[3]}
		delta, dec, ok := newtonStep(&s.h, &g)
		if !ok {
			break
		}
		if out.converged = dec <= tol*n; out.converged || out.iterations == iters {
			if !out.converged && warm {
				break
			}
			out.lambdaC = s.g[0]
			return out
		}
		step, accepted := 1.0, false
		for probe := 0; probe < maxProbes && !accepted; probe++ {
			var cand Centred
			for k := range cand {
				cand[k] = out.c[k] + step*delta[k]
			}
			sc := eval(cand)
			if sc.low {
				step /= 2
				continue
			}
			d := (sc.g[0]-vol)*delta[0] + sc.g[1]*delta[1] + sc.g[2]*delta[2] + sc.g[3]*delta[3]
			if d >= -overshoot*dec {
				out.c, s, accepted = cand, sc, true
				out.iterations++
			} else {
				step *= dec / (dec - d)
			}
		}
		if !accepted {
			if warm {
				break
			}
			// inv holds a rejected probe's rates; put back those of out.c.
			out.lambdaC = eval(out.c).g[0]
			return out
		}
	}
	out.c = cold
	rate := math.Max(cold[0], intensity.DefaultFloor)
	for i := range inv {
		inv[i] = 1 / rate
	}
	out.lambdaC = n / rate
	return out
}

// FitMLE computes the maximum-likelihood θ for events observed on the
// window w, starting from the homogeneous rate. It requires a non-empty
// window and at least four events (the number of parameters). The returned
// Result reports convergence; a non-converged fit is still usable (finite,
// every event's rate at or above the floor) but flagged — a batch that does
// not determine θ comes back as the homogeneous rate, not converged.
func FitMLE(events []mdpp.Event, w geom.Window) (Result, error) {
	fr, err := newFrame(w)
	if err != nil {
		return Result{}, fmt.Errorf("estimate: FitMLE: %w", err)
	}
	if len(events) < 4 {
		return Result{}, errors.New("estimate: FitMLE requires at least 4 events")
	}
	p := borrowPoints(len(events))
	defer p.release()
	p.setEvents(&fr, events)
	f := p.solve(fr.vol, nil, maxIter, nil)
	return Result{Theta: f.c.Theta(w), Iterations: f.iterations, Converged: f.converged}, nil
}

// BatchFit is FitBatch's outcome: the fit, the optimum in the window's
// centred coordinates — the next batch's warm start — and Eq. (3)'s
// λc = Σ_i 1/λ̃_i over the reciprocal rates FitBatch left in inv.
type BatchFit struct {
	Result
	Centred Centred
	LambdaC float64
	Passes  int // passes over the batch, the fit's unit of cost
}

// FitBatch is FitMLE for the F-operator: it reads the batch's tuples in
// place, starts from warm (the previous batch's BatchFit.Centred; nil for
// none — a warm-started fit that stops short comes back as the homogeneous
// rate, not converged) and leaves 1/λ̃_i under the returned fit, clamped at
// the rate floor, in inv[i] (len(inv) must be len(tuples)) — its last pass
// computed them anyway, so Eq. (3) needs no evaluation of its own.
func FitBatch(tuples []stream.Tuple, w geom.Window, warm *Centred, inv []float64) (BatchFit, error) {
	fr, err := newFrame(w)
	if err != nil {
		return BatchFit{}, fmt.Errorf("estimate: FitBatch: %w", err)
	}
	n := len(tuples)
	if n < 4 {
		return BatchFit{}, errors.New("estimate: FitBatch requires at least 4 tuples")
	}
	p := borrowPoints(n)
	defer p.release()
	p.setTuples(&fr, tuples)
	f := p.solve(fr.vol, warm, maxIter, inv)
	return BatchFit{
		Result:  Result{Theta: f.c.Theta(w), Iterations: f.iterations, Converged: f.converged},
		Centred: f.c,
		LambdaC: f.lambdaC,
		Passes:  f.passes,
	}, nil
}

// RelativeError returns max_k |est_k − true_k| / scale, a scale-aware
// parameter-recovery metric used by experiment E9. scale defaults to the
// magnitude of the true intercept when positive.
func RelativeError(est, truth intensity.Theta) float64 {
	scale := math.Abs(truth[0])
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for k := 0; k < 4; k++ {
		if d := math.Abs(est[k]-truth[k]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}
