package handler

import (
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/geom"
	"repro/internal/sensors"
	"repro/internal/stats"
)

func testSetup(t *testing.T, nSensors int, initialBudget float64) (*Handler, *budget.Controller, *geom.Grid) {
	t.Helper()
	region := geom.NewRect(0, 0, 8, 8)
	grid, err := geom.NewGrid(region, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	fleet, err := sensors.BuildFleet(region, sensors.FleetConfig{
		N:        nSensors,
		Response: sensors.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.05},
	}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := budget.NewController(budget.Config{Initial: initialBudget, Delta: 1, Min: 1, Max: 100, ViolationThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]sensors.Field{"c": sensors.ConstantField{Name: "c", V: 1}}
	h, err := New(Config{EpochLength: 1}, grid, fleet, fields, ctrl, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return h, ctrl, grid
}

func TestNewValidation(t *testing.T) {
	h, ctrl, grid := testSetup(t, 10, 5)
	_ = h
	rng := stats.NewRNG(1)
	fleet, _ := sensors.BuildFleet(grid.Region(), sensors.FleetConfig{N: 1, Response: sensors.ResponseModel{BaseProb: 0.5, MaxProb: 0.9, IncentiveScale: 1}}, rng.Fork())
	fields := map[string]sensors.Field{"c": sensors.ConstantField{Name: "c"}}
	if _, err := New(Config{EpochLength: 0}, grid, fleet, fields, ctrl, rng); err == nil {
		t.Error("zero epoch should error")
	}
	if _, err := New(Config{EpochLength: 1}, nil, fleet, fields, ctrl, rng); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := New(Config{EpochLength: 1}, grid, fleet, nil, ctrl, rng); err == nil {
		t.Error("no fields should error")
	}
}

func TestRunEpochNoBudgets(t *testing.T) {
	h, _, _ := testSetup(t, 20, 5)
	out, err := h.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("no registered slots but tuples produced")
	}
	if h.RequestsSent() != 0 {
		t.Fatal("requests sent without budgets")
	}
}

func TestRunEpochProducesTuples(t *testing.T) {
	h, ctrl, grid := testSetup(t, 400, 10)
	// Register every cell for attribute c.
	for q := 0; q < grid.Side(); q++ {
		for r := 0; r < grid.Side(); r++ {
			ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
		}
	}
	out, err := h.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := out["c"]
	if !ok || b.Len() == 0 {
		t.Fatal("no tuples acquired")
	}
	if h.RequestsSent() == 0 || h.ResponsesReceived() == 0 {
		t.Fatal("counters not updated")
	}
	if h.ResponsesReceived() > h.RequestsSent() {
		t.Fatal("more responses than requests")
	}
	// Response rate ≈ 60% modulo epoch-horizon truncation.
	frac := float64(h.ResponsesReceived()) / float64(h.RequestsSent())
	if frac < 0.4 || frac > 0.8 {
		t.Fatalf("response fraction = %g", frac)
	}
	// All tuples in window and attributed correctly.
	for _, tp := range b.Tuples {
		if tp.Attr != "c" {
			t.Fatal("wrong attribute")
		}
		if tp.T < 0 || tp.T >= 1 {
			t.Fatalf("tuple outside epoch: t=%g", tp.T)
		}
		if tp.ID == 0 {
			t.Fatal("tuple id not assigned")
		}
	}
}

func TestRunEpochAdvancesFleet(t *testing.T) {
	h, _, _ := testSetup(t, 5, 5)
	// Capture positions before/after.
	fleetBefore := make([]geom.Point, 5)
	for i, s := range h.fleet.Sensors {
		fleetBefore[i] = s.Position()
	}
	if _, err := h.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, s := range h.fleet.Sensors {
		if s.Position() != fleetBefore[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fleet not advanced")
	}
}

func TestRunEpochUnknownAttribute(t *testing.T) {
	h, ctrl, _ := testSetup(t, 10, 5)
	ctrl.Register(budget.Key{Attr: "nope", Cell: geom.CellID{Q: 0, R: 0}})
	if _, err := h.RunEpoch(0); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestSampleWithAndWithoutReplacement(t *testing.T) {
	h, ctrl, grid := testSetup(t, 600, 3)
	// Dense fleet, small budget → sampling without replacement: requests
	// should equal budget per slot exactly.
	for q := 0; q < grid.Side(); q++ {
		for r := 0; r < grid.Side(); r++ {
			ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
		}
	}
	if _, err := h.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Exactly 3 requests per cell with sensors in it; at most 16 cells.
	if h.RequestsSent() > uint64(3*grid.NumCells()) {
		t.Fatalf("requests = %d, budget allows %d", h.RequestsSent(), 3*grid.NumCells())
	}
	// Sparse fleet, large budget → with replacement: still spends the whole
	// budget on the (few) sensors present.
	h2, ctrl2, grid2 := testSetup(t, 4, 50)
	for q := 0; q < grid2.Side(); q++ {
		for r := 0; r < grid2.Side(); r++ {
			ctrl2.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
		}
	}
	if _, err := h2.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	// 4 sensors live in ≤4 distinct cells; each such cell spends 50.
	if h2.RequestsSent() == 0 || h2.RequestsSent() > 200 {
		t.Fatalf("with-replacement requests = %d", h2.RequestsSent())
	}
	if h2.RequestsSent()%50 != 0 {
		t.Fatalf("requests %d not a multiple of the 50 budget", h2.RequestsSent())
	}
}

func TestIncentiveFuncConsulted(t *testing.T) {
	h, ctrl, _ := testSetup(t, 100, 10)
	ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: 0, R: 0}})
	called := false
	h.SetIncentive(func(k budget.Key) float64 {
		called = true
		return 2.0
	})
	if _, err := h.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("incentive function never consulted")
	}
}

func TestIncentiveRaisesResponseFraction(t *testing.T) {
	run := func(incentive float64) float64 {
		h, ctrl, grid := testSetup(t, 300, 8)
		for q := 0; q < grid.Side(); q++ {
			for r := 0; r < grid.Side(); r++ {
				ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
			}
		}
		h.SetIncentive(func(budget.Key) float64 { return incentive })
		for e := 0; e < 10; e++ {
			if _, err := h.RunEpoch(float64(e)); err != nil {
				t.Fatal(err)
			}
		}
		return float64(h.ResponsesReceived()) / float64(h.RequestsSent())
	}
	low := run(0)
	high := run(10)
	if high <= low {
		t.Fatalf("incentive did not raise responses: %g vs %g", low, high)
	}
}

// TestSampleSensorsBudgetExceedsPopulation pins the with-replacement edge
// directly: when the budget asks for more requests than the cell holds
// sensors, every request must still target a member of the cell — sensors
// are asked repeatedly rather than the budget silently shrinking.
func TestSampleSensorsBudgetExceedsPopulation(t *testing.T) {
	h, _, _ := testSetup(t, 3, 5)
	candidates := h.fleet.Sensors
	for _, n := range []int{len(candidates), len(candidates) + 1, 10 * len(candidates)} {
		got := h.sampleSensors(candidates, n)
		if len(got) != n {
			t.Fatalf("n=%d: sampled %d targets", n, len(got))
		}
		member := make(map[*sensors.Sensor]bool, len(candidates))
		for _, s := range candidates {
			member[s] = true
		}
		for _, s := range got {
			if !member[s] {
				t.Fatalf("n=%d: sampled a sensor outside the cell", n)
			}
		}
	}
	// Just below the population boundary: without replacement, all
	// distinct.
	got := h.sampleSensors(candidates, len(candidates)-1)
	seen := make(map[*sensors.Sensor]bool)
	for _, s := range got {
		if seen[s] {
			t.Fatal("without-replacement sample repeated a sensor")
		}
		seen[s] = true
	}
}

// TestRunEpochEmptyCell: a budgeted slot whose cell holds no sensors must
// be skipped without spending requests (and without erroring the epoch).
func TestRunEpochEmptyCell(t *testing.T) {
	h, ctrl, grid := testSetup(t, 1, 25)
	// The single sensor lives in exactly one cell; register every cell so
	// 15 of the 16 slots are guaranteed empty.
	for q := 0; q < grid.Side(); q++ {
		for r := 0; r < grid.Side(); r++ {
			ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
		}
	}
	out, err := h.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the populated cell spends: exactly its 25-request budget, with
	// replacement onto the lone sensor.
	if h.RequestsSent() != 25 {
		t.Fatalf("requests = %d, want the one populated cell's budget of 25", h.RequestsSent())
	}
	for _, tp := range out["c"].Tuples {
		if tp.Sensor != h.fleet.Sensors[0].ID {
			t.Fatalf("tuple from unexpected sensor %d", tp.Sensor)
		}
	}
}

// TestZeroIncentiveResponseProbability: with no incentive source (and with
// an explicit zero incentive) the response fraction must track the
// response model's BaseProb, not MaxProb.
func TestZeroIncentiveResponseProbability(t *testing.T) {
	run := func(install bool) float64 {
		h, ctrl, grid := testSetup(t, 400, 10)
		for q := 0; q < grid.Side(); q++ {
			for r := 0; r < grid.Side(); r++ {
				ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
			}
		}
		if install {
			h.SetIncentive(func(budget.Key) float64 { return 0 })
		}
		for e := 0; e < 8; e++ {
			if _, err := h.RunEpoch(float64(e)); err != nil {
				t.Fatal(err)
			}
		}
		return float64(h.ResponsesReceived()) / float64(h.RequestsSent())
	}
	// BaseProb is 0.6; responses arriving past the epoch horizon shave a
	// little off. Both the nil-incentive and explicit-zero paths must sit
	// well below MaxProb (0.95).
	for _, install := range []bool{false, true} {
		frac := run(install)
		if frac < 0.45 || frac > 0.7 {
			t.Fatalf("install=%v: zero-incentive response fraction = %g, want ≈ BaseProb 0.6", install, frac)
		}
	}
}

// TestSkipUnknownAttrs: with the mixed-source flag set, budget slots for
// externally fed attributes are skipped instead of failing the epoch.
func TestSkipUnknownAttrs(t *testing.T) {
	h, ctrl, _ := testSetup(t, 50, 5)
	h.cfg.SkipUnknownAttrs = true
	ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: 0, R: 0}})
	ctrl.Register(budget.Key{Attr: "external-only", Cell: geom.CellID{Q: 1, R: 1}})
	out, err := h.RunEpoch(0)
	if err != nil {
		t.Fatalf("unknown attr should be skipped, got %v", err)
	}
	if _, ok := out["external-only"]; ok {
		t.Fatal("skipped attribute produced a batch")
	}
}

func TestEpochLengthAccessor(t *testing.T) {
	h, _, _ := testSetup(t, 5, 5)
	if h.cfg.EpochLength != 1 {
		t.Fatalf("epoch = %g", h.cfg.EpochLength)
	}
}

func TestResponsesSpreadOverEpoch(t *testing.T) {
	h, ctrl, grid := testSetup(t, 500, 20)
	for q := 0; q < grid.Side(); q++ {
		for r := 0; r < grid.Side(); r++ {
			ctrl.Register(budget.Key{Attr: "c", Cell: geom.CellID{Q: q, R: r}})
		}
	}
	out, err := h.RunEpoch(5)
	if err != nil {
		t.Fatal(err)
	}
	b := out["c"]
	if b.Len() < 100 {
		t.Fatalf("too few tuples (%d) for a timing test", b.Len())
	}
	var s stats.Summary
	for _, tp := range b.Tuples {
		s.Add(tp.T)
	}
	// Request times are uniform over [5,6); with small latency the mean
	// should be near 5.5.
	if math.Abs(s.Mean()-5.5) > 0.15 {
		t.Fatalf("mean response time %g, want ≈5.5", s.Mean())
	}
}
