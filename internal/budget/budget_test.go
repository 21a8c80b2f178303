package budget

import (
	"testing"

	"repro/internal/geom"
)

func validCfg() Config {
	return Config{Initial: 50, Delta: 10, Min: 10, Max: 200, ViolationThreshold: 5}
}

func key(attr string, q, r int) Key {
	return Key{Attr: attr, Cell: geom.CellID{Q: q, R: r}}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Initial: 10, Delta: 0, Min: 1, Max: 20},
		{Initial: 10, Delta: 1, Min: 0, Max: 20},
		{Initial: 10, Delta: 1, Min: 11, Max: 20},
		{Initial: 10, Delta: 1, Min: 1, Max: 5},
		{Initial: 10, Delta: 1, Min: 1, Max: 20, ViolationThreshold: 101},
		{Initial: 10, Delta: 1, Min: 1, Max: 20, ViolationThreshold: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if validCfg().Validate() != nil {
		t.Error("valid config rejected")
	}
	if _, err := NewController(Config{}); err == nil {
		t.Error("NewController must validate")
	}
}

func TestRegisterAndBudget(t *testing.T) {
	c, err := NewController(validCfg())
	if err != nil {
		t.Fatal(err)
	}
	k := key("rain", 1, 2)
	if _, ok := c.slots[k]; ok {
		t.Fatal("unregistered slot has a budget")
	}
	c.Register(k)
	if s, ok := c.slots[k]; !ok || s.beta != 50 {
		t.Fatalf("slot = %+v, ok=%v", s, ok)
	}
	// Re-register is a no-op (state preserved).
	c.Observe(k, 50)
	c.Register(k)
	if b := c.slots[k].beta; b != 60 {
		t.Fatalf("re-register reset the budget to %g", b)
	}
}

func TestObserveRaisesOnViolation(t *testing.T) {
	c, _ := NewController(validCfg())
	k := key("rain", 0, 0)
	c.Register(k)
	got := c.Observe(k, 20) // above threshold 5 → +Δ
	if got != 60 {
		t.Fatalf("budget = %g, want 60", got)
	}
	got = c.Observe(k, 0) // below threshold → -Δ
	if got != 50 {
		t.Fatalf("budget = %g, want 50", got)
	}
}

func TestObserveAutoRegisters(t *testing.T) {
	c, _ := NewController(validCfg())
	k := key("temp", 3, 3)
	got := c.Observe(k, 50)
	if got != 60 {
		t.Fatalf("auto-registered budget = %g", got)
	}
}

func TestBudgetClampsAtMin(t *testing.T) {
	c, _ := NewController(validCfg())
	k := key("rain", 0, 0)
	c.Register(k)
	for i := 0; i < 20; i++ {
		c.Observe(k, 0)
	}
	if b := c.slots[k].beta; b != 10 {
		t.Fatalf("budget = %g, want clamped at Min=10", b)
	}
	if c.slots[k].infeasible {
		t.Fatal("satisfied slot flagged infeasible")
	}
}

func TestInfeasibilityAtCap(t *testing.T) {
	c, _ := NewController(validCfg())
	k := key("rain", 0, 0)
	c.Register(k)
	for i := 0; i < 30; i++ {
		c.Observe(k, 80)
	}
	if b := c.slots[k].beta; b != 200 {
		t.Fatalf("budget = %g, want capped at 200", b)
	}
	if !c.slots[k].infeasible {
		t.Fatal("saturated violating slot must be infeasible")
	}
	// Recovery: once violations stop, the flag clears.
	c.Observe(k, 0)
	if c.slots[k].infeasible {
		t.Fatal("infeasible flag did not clear")
	}
}

func TestUnregister(t *testing.T) {
	c, _ := NewController(validCfg())
	k := key("rain", 0, 0)
	c.Register(k)
	c.Unregister(k)
	if _, ok := c.slots[k]; ok {
		t.Fatal("unregistered slot still present")
	}
}

func TestSnapshotsSortedAndComplete(t *testing.T) {
	c, _ := NewController(validCfg())
	keys := []Key{key("temp", 1, 0), key("rain", 0, 1), key("rain", 0, 0), key("temp", 0, 0)}
	for _, k := range keys {
		c.Register(k)
	}
	snaps := c.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1].Key, snaps[i].Key
		if a.Attr > b.Attr || (a.Attr == b.Attr && a.Cell.Q > b.Cell.Q) {
			t.Fatal("snapshots not sorted")
		}
	}
}

func TestTotalBudget(t *testing.T) {
	c, _ := NewController(validCfg())
	c.Register(key("a", 0, 0))
	c.Register(key("a", 1, 0))
	if got := c.TotalBudget(); got != 100 {
		t.Fatalf("total = %g", got)
	}
}

func TestBudgetConvergesUnderAlternatingPressure(t *testing.T) {
	// A slot that violates exactly when budget < 100 settles into a narrow
	// band around 100 — the closed-loop behaviour E6 measures end to end.
	c, _ := NewController(Config{Initial: 20, Delta: 5, Min: 5, Max: 500, ViolationThreshold: 5})
	k := key("rain", 0, 0)
	c.Register(k)
	for i := 0; i < 200; i++ {
		nv := 0.0
		if c.slots[k].beta < 100 {
			nv = 50
		}
		c.Observe(k, nv)
	}
	if b := c.slots[k].beta; b < 90 || b > 115 {
		t.Fatalf("budget %g did not settle near 100", b)
	}
	snap := c.Snapshots()[0]
	if snap.Adjustments != 200 {
		t.Fatalf("adjustments = %d", snap.Adjustments)
	}
}

func TestKeyString(t *testing.T) {
	if key("rain", 1, 2).String() != "rain@(1,2)" {
		t.Fatalf("key string = %s", key("rain", 1, 2))
	}
}

func TestConfigAccessor(t *testing.T) {
	c, _ := NewController(validCfg())
	if c.cfg != validCfg() {
		t.Fatal("controller does not keep its config")
	}
}

// TestObserveRetuneCurve pins the ±Δβ staircase documented on Observe: a
// fixed sequence of N_v observations (percent units) must produce exactly
// this β/infeasible trajectory, including the edge where a raise saturates
// at Max (infeasible set) and the first below-threshold observation clears
// it. RateScale is pinned alongside as Initial/β clamped to (0, 1].
func TestObserveRetuneCurve(t *testing.T) {
	cfg := Config{Initial: 100, Delta: 25, Min: 50, Max: 150, ViolationThreshold: 10}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := key("temp", 0, 0)
	steps := []struct {
		nv             float64 // observed N_v, percent
		wantBeta       float64
		wantInfeasible bool
		wantScale      float64
	}{
		{nv: 0, wantBeta: 75, wantInfeasible: false, wantScale: 1},             // below threshold: -Δβ
		{nv: 10, wantBeta: 50, wantInfeasible: false, wantScale: 1},            // threshold is exclusive: 10 is not > 10
		{nv: 0, wantBeta: 50, wantInfeasible: false, wantScale: 1},             // clamped at Min
		{nv: 10.1, wantBeta: 75, wantInfeasible: false, wantScale: 1},          // above threshold: +Δβ
		{nv: 100, wantBeta: 100, wantInfeasible: false, wantScale: 1},          // back to Initial
		{nv: 100, wantBeta: 125, wantInfeasible: false, wantScale: 0.8},        // scale = 100/125
		{nv: 100, wantBeta: 150, wantInfeasible: true, wantScale: 100.0 / 150}, // saturates at Max: infeasible
		{nv: 100, wantBeta: 150, wantInfeasible: true, wantScale: 100.0 / 150}, // stays saturated
		{nv: 5, wantBeta: 125, wantInfeasible: false, wantScale: 0.8},          // recovery clears the flag
	}
	for i, st := range steps {
		got := c.Observe(k, st.nv)
		if got != st.wantBeta {
			t.Fatalf("step %d (nv=%g): β = %g, want %g", i, st.nv, got, st.wantBeta)
		}
		if inf := c.slots[k].infeasible; inf != st.wantInfeasible {
			t.Fatalf("step %d (nv=%g): infeasible = %v, want %v", i, st.nv, inf, st.wantInfeasible)
		}
		scale, ok := c.RateScale(k)
		if !ok {
			t.Fatalf("step %d: RateScale missing for observed slot", i)
		}
		if scale != st.wantScale {
			t.Fatalf("step %d (nv=%g): scale = %g, want %g", i, st.nv, scale, st.wantScale)
		}
	}
	if _, ok := c.RateScale(key("temp", 9, 9)); ok {
		t.Fatal("RateScale reported an unregistered slot")
	}
}
