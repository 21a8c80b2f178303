package incentive

import (
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/geom"
	"repro/internal/sensors"
)

func model() sensors.ResponseModel {
	return sensors.ResponseModel{BaseProb: 0.2, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0}
}

func key(q, r int) budget.Key {
	return budget.Key{Attr: "rain", Cell: geom.CellID{Q: q, R: r}}
}

func TestNewAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator(sensors.ResponseModel{}, 10, 1); err == nil {
		t.Error("invalid model should error")
	}
	if _, err := NewAllocator(model(), -1, 1); err == nil {
		t.Error("negative total should error")
	}
	if _, err := NewAllocator(model(), 10, 0); err == nil {
		t.Error("zero step should error")
	}
}

func TestGreedyFavorsHighPressure(t *testing.T) {
	a, err := NewAllocator(model(), 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a.ObservePressure(key(0, 0), 80)
	a.ObservePressure(key(1, 0), 10)
	a.ObservePressure(key(2, 0), 0) // satisfied: gets nothing
	alloc := a.Reallocate()
	if alloc[key(2, 0)] != 0 {
		t.Fatal("zero-pressure slot received incentive")
	}
	if alloc[key(0, 0)] <= alloc[key(1, 0)] {
		t.Fatalf("high-pressure slot got %g, low got %g", alloc[key(0, 0)], alloc[key(1, 0)])
	}
	// Budget fully spent (both slots have unmet marginal gain).
	total := 0.0
	for _, v := range alloc {
		total += v
	}
	if math.Abs(total-10) > 0.11 {
		t.Fatalf("spent %g of 10", total)
	}
	kept := 0.0
	for _, v := range a.alloc {
		kept += v
	}
	if math.Abs(kept-total) > 1e-9 {
		t.Fatal("kept allocation differs from the returned one")
	}
}

func TestGreedyEqualPressureSplitsEvenly(t *testing.T) {
	a, _ := NewAllocator(model(), 8, 0.05)
	a.ObservePressure(key(0, 0), 50)
	a.ObservePressure(key(1, 1), 50)
	alloc := a.Reallocate()
	if math.Abs(alloc[key(0, 0)]-alloc[key(1, 1)]) > 0.06 {
		t.Fatalf("equal pressure but unequal allocation: %v", alloc)
	}
}

func TestUniformAllocate(t *testing.T) {
	a, _ := NewAllocator(model(), 9, 0.1)
	a.ObservePressure(key(0, 0), 70)
	a.ObservePressure(key(1, 0), 10)
	a.ObservePressure(key(2, 0), 0)
	alloc := a.UniformAllocate()
	if len(alloc) != 2 {
		t.Fatalf("uniform allocated to %d slots", len(alloc))
	}
	if alloc[key(0, 0)] != 4.5 || alloc[key(1, 0)] != 4.5 {
		t.Fatalf("alloc = %v", alloc)
	}
	// No pressured slots: nothing allocated.
	b, _ := NewAllocator(model(), 9, 0.1)
	if got := b.UniformAllocate(); len(got) != 0 {
		t.Fatal("allocation without pressure")
	}
}

func TestIncentiveAccessor(t *testing.T) {
	a, _ := NewAllocator(model(), 5, 0.5)
	a.ObservePressure(key(0, 0), 100)
	a.Reallocate()
	if a.Incentive(key(0, 0)) <= 0 {
		t.Fatal("Incentive accessor returned nothing")
	}
	if a.Incentive(key(5, 5)) != 0 {
		t.Fatal("unknown slot has incentive")
	}
}

func TestNegativePressureClamped(t *testing.T) {
	a, _ := NewAllocator(model(), 5, 0.5)
	a.ObservePressure(key(0, 0), -10)
	if got := a.Reallocate(); len(got) != 0 {
		t.Fatal("negative pressure treated as positive")
	}
}

func TestZeroBudget(t *testing.T) {
	a, _ := NewAllocator(model(), 0, 0.5)
	a.ObservePressure(key(0, 0), 100)
	if got := a.Reallocate(); len(got) != 0 {
		t.Fatal("zero budget allocated something")
	}
}

func TestGreedyBeatsUniformOnSkewedPressure(t *testing.T) {
	// Objective: Σ pressure·P(respond|i). Greedy must be at least as good as
	// uniform, strictly better under skew.
	a, _ := NewAllocator(model(), 6, 0.05)
	pressures := map[budget.Key]float64{
		key(0, 0): 90, key(1, 0): 5, key(2, 0): 5,
	}
	for k, p := range pressures {
		a.ObservePressure(k, p)
	}
	objective := func(alloc map[budget.Key]float64) float64 {
		total := 0.0
		for k, p := range pressures {
			total += p * model().RespondProb(alloc[k])
		}
		return total
	}
	greedy := objective(a.Reallocate())
	uniform := objective(a.UniformAllocate())
	if greedy <= uniform {
		t.Fatalf("greedy %g not better than uniform %g", greedy, uniform)
	}
}
