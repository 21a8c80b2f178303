package estimate

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/stats"
)

// fuzzEvents lays n events out on w in one of the arrangements that stress
// the solver differently: spread evenly, crowded into a corner, crowded on
// one side (an unbounded likelihood when n is small), snapped to a handful
// of positions, on a line, or partly outside the window.
func fuzzEvents(rng *stats.RNG, w geom.Window, n int, layout uint8) []mdpp.Event {
	ev := make([]mdpp.Event, n)
	for i := range ev {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		switch layout % 6 {
		case 1:
			a, b, c = a*a, b*b, c*c
		case 2:
			a = 0.5 + a/2
		case 3:
			a, b, c = math.Floor(a*2)/2, math.Floor(b*2)/2, 0.5
		case 4:
			b, c = a, 1-a
		case 5:
			a = 2*a - 0.5
		}
		ev[i] = mdpp.Event{
			T: w.T0 + a*w.Duration(),
			X: w.Rect.MinX + b*w.Rect.Width(),
			Y: w.Rect.MinY + c*w.Rect.Height(),
		}
	}
	return ev
}

// FuzzFitMLE drives the solver over windows anywhere on the axes and event
// sets of every arrangement and checks what every caller relies on: no
// panic, a finite θ, rates at or above the floor at every event of a
// converged fit, a likelihood no worse than the homogeneous start's, and —
// FitBatch's contract with the F-operator — reciprocal rates and λc that
// are those of the returned θ.
func FuzzFitMLE(f *testing.F) {
	f.Add(int64(1), uint16(128), 0.0, 0.0, 1.0, 4.0, uint8(0), false)
	f.Add(int64(2), uint16(8), 1e6, -1e6, 0.2, 1.0, uint8(2), true)
	f.Add(int64(3), uint16(4096), 1e9, 1e6, 1.0, 8.0, uint8(1), true)
	f.Add(int64(4), uint16(40), 5.0, 5.0, 2.0, 3.0, uint8(3), false)
	f.Add(int64(5), uint16(64), -3.0, 7.0, 1e-3, 1e3, uint8(4), true)
	f.Add(int64(6), uint16(300), 1e12, 0.0, 60.0, 0.5, uint8(5), false)
	// Seven events on one side of the centre, warm: the likelihood is unbounded
	// and the iterates, started below the homogeneous rate's, run out of
	// iterations still below it.
	f.Add(int64(83), uint16(4096), 1.000000065e+09, 1e6, 1.0, 2.4000000000000004, uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, t0, xy0, dur, side float64, layout uint8, warm bool) {
		w := geom.Window{T0: t0, T1: t0 + dur, Rect: geom.NewRect(xy0, xy0, xy0+side, xy0+side)}
		ev := fuzzEvents(stats.NewRNG(seed), w, 4+int(n%4093), layout)
		var start *Centred
		if warm {
			start = &Centred{float64(len(ev)) / w.Volume(), 0.5, -0.25, 0.125}
		}
		inv := make([]float64, len(ev))
		bf, err := FitBatch(tuplesOf(ev), w, start, inv)
		if err != nil {
			if _, err2 := FitMLE(ev, w); err2 == nil {
				t.Fatalf("FitBatch rejects window %v (%v), FitMLE accepts it", w, err)
			}
			return
		}
		for k, v := range bf.Theta {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(bf.Centred[k]) || math.IsInf(bf.Centred[k], 0) {
				t.Fatalf("θ = %v (centred %v) on %v", bf.Theta, bf.Centred, w)
			}
		}
		if bf.Theta != bf.Centred.Theta(w) {
			t.Fatalf("Theta %v is not Centred %v on %v", bf.Theta, bf.Centred, w)
		}
		fr, _ := newFrame(w)
		lin := intensity.NewLinear(bf.Theta)
		lambdaC := 0.0
		for i, e := range ev {
			u, v, ww := (e.T-fr.ct)*fr.st, (e.X-fr.cx)*fr.sx, (e.Y-fr.cy)*fr.sy
			lam := bf.Centred[0] + bf.Centred[1]*u + bf.Centred[2]*v + bf.Centred[3]*ww
			if bf.Converged && lam < intensity.DefaultFloor {
				t.Fatalf("converged with λ = %g at event %d", lam, i)
			}
			if want := 1 / math.Max(lam, intensity.DefaultFloor); inv[i] != want {
				t.Fatalf("inv[%d] = %g, want %g", i, inv[i], want)
			}
			// The same rate from the absolute θ, to the rounding of the
			// largest term that went into it (far from the origin θ0 is
			// c0 less slope·centre, and cancels against slope·p again).
			th := bf.Theta
			ulp := 0x1p-52 * (math.Abs(bf.Centred[0]) + math.Abs(th[1])*(math.Abs(fr.ct)+math.Abs(e.T)) +
				math.Abs(th[2])*(math.Abs(fr.cx)+math.Abs(e.X)) + math.Abs(th[3])*(math.Abs(fr.cy)+math.Abs(e.Y)))
			if got := lin.Eval(e.T, e.X, e.Y); math.Abs(got-math.Max(lam, intensity.DefaultFloor)) > 8*ulp+1e-300 {
				t.Fatalf("rate at event %d: %g from θ, %g from the fit (tolerance %g)", i, got, lam, 8*ulp)
			}
			lambdaC += inv[i]
		}
		if math.Abs(bf.LambdaC-lambdaC) > 0x1p-52*float64(len(ev))*lambdaC {
			t.Fatalf("λc = %g, Σ inv = %g", bf.LambdaC, lambdaC)
		}
		cold := Centred{float64(len(ev)) / w.Volume(), 0, 0, 0}
		if got, base := centredLogLik(bf.Centred, ev, w), centredLogLik(cold, ev, w); got < base-1e-9*float64(len(ev)) {
			t.Fatalf("ℓ = %g, below the homogeneous start's %g (converged=%v)", got, base, bf.Converged)
		}
		if !warm {
			res, err := FitMLE(ev, w)
			if err != nil || res != bf.Result {
				t.Fatalf("FitMLE %+v (%v), FitBatch %+v", res, err, bf.Result)
			}
		}
	})
}
