package sensors

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/stats"
)

func region() geom.Rect { return geom.NewRect(0, 0, 10, 10) }

func respModel() ResponseModel {
	return ResponseModel{BaseProb: 0.4, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0.1}
}

func TestRainField(t *testing.T) {
	storms := []Storm{{X0: 2, Y0: 2, VX: 1, VY: 0, Radius: 1}}
	f, err := NewRainField(region(), storms)
	if err != nil {
		t.Fatal(err)
	}
	if f.Attr() != "rain" {
		t.Fatal("attr wrong")
	}
	if f.Value(0, 2, 2) != 1 {
		t.Fatal("storm center must be raining at t=0")
	}
	if f.Value(0, 8, 8) != 0 {
		t.Fatal("far point must be dry")
	}
	// Storm drifts: at t=2 the center is at x=4.
	if f.Value(2, 4, 2) != 1 {
		t.Fatal("storm did not move")
	}
	if f.Value(2, 2, 2) != 0 {
		t.Fatal("old position still raining")
	}
	// Wrap-around: at t=10 center is back at x=2 (width 10).
	if f.Value(10, 2, 2) != 1 {
		t.Fatal("storm did not wrap")
	}
	if _, err := NewRainField(geom.Rect{}, storms); err == nil {
		t.Error("empty region should error")
	}
	if _, err := NewRainField(region(), []Storm{{Radius: 0}}); err == nil {
		t.Error("zero radius should error")
	}
}

func TestTempField(t *testing.T) {
	f, err := NewTempField(20, 0.5, -0.25, 3, 24, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Attr() != "temp" {
		t.Fatal("attr wrong")
	}
	// At t=0: base + gradients only.
	if got := f.Value(0, 2, 4); math.Abs(got-(20+1-1)) > 1e-12 {
		t.Fatalf("value = %g", got)
	}
	// Diurnal peak at quarter period.
	if got := f.Value(6, 0, 0); math.Abs(got-23) > 1e-12 {
		t.Fatalf("diurnal peak = %g", got)
	}
	if _, err := NewTempField(20, 0, 0, 0, 0, 0, nil); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewTempField(20, 0, 0, 0, 24, -1, nil); err == nil {
		t.Error("negative noise should error")
	}
	if _, err := NewTempField(20, 0, 0, 0, 24, 1, nil); err == nil {
		t.Error("noise without RNG should error")
	}
}

func TestTempFieldNoise(t *testing.T) {
	f, err := NewTempField(20, 0, 0, 0, 24, 2, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Summary
	for i := 0; i < 5000; i++ {
		s.Add(f.Value(0, 0, 0))
	}
	if math.Abs(s.Mean()-20) > 0.2 {
		t.Fatalf("noisy mean = %g", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 0.2 {
		t.Fatalf("noise std = %g", s.StdDev())
	}
}

func TestConstantField(t *testing.T) {
	f := ConstantField{Name: "x", V: 7}
	if f.Attr() != "x" || f.Value(1, 2, 3) != 7 {
		t.Fatal("constant field wrong")
	}
}

func TestResponseModelValidate(t *testing.T) {
	bad := []ResponseModel{
		{BaseProb: -0.1, MaxProb: 0.5, IncentiveScale: 1},
		{BaseProb: 0.5, MaxProb: 0.4, IncentiveScale: 1},
		{BaseProb: 0.5, MaxProb: 1.1, IncentiveScale: 1},
		{BaseProb: 0.5, MaxProb: 0.9, IncentiveScale: 0},
		{BaseProb: 0.5, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: -1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("model %d should be invalid", i)
		}
	}
	if respModel().Validate() != nil {
		t.Error("valid model rejected")
	}
}

func TestRespondProbMonotone(t *testing.T) {
	m := respModel()
	if got := m.RespondProb(0); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("P(0) = %g", got)
	}
	if got := m.RespondProb(-5); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("negative incentive clamps to base, got %g", got)
	}
	prev := 0.0
	for i := 0.0; i < 10; i += 0.5 {
		p := m.RespondProb(i)
		if p < prev {
			t.Fatal("response probability not monotone in incentive")
		}
		if p > m.MaxProb {
			t.Fatal("response probability exceeded MaxProb")
		}
		prev = p
	}
	if m.RespondProb(100) < 0.89 {
		t.Fatal("saturation not near MaxProb")
	}
}

func newTestSensor(t *testing.T, seed int64, gpsStd float64) *Sensor {
	t.Helper()
	rng := stats.NewRNG(seed)
	w, err := mobility.NewRandomWaypoint(region(), 1, 2, 0, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSensor(1, w, respModel(), gpsStd, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSensorValidation(t *testing.T) {
	rng := stats.NewRNG(2)
	w, _ := mobility.NewRandomWaypoint(region(), 1, 2, 0, rng.Fork())
	if _, err := NewSensor(1, nil, respModel(), 0, rng); err == nil {
		t.Error("nil walker should error")
	}
	if _, err := NewSensor(1, w, ResponseModel{}, 0, rng); err == nil {
		t.Error("invalid model should error")
	}
	if _, err := NewSensor(1, w, respModel(), -1, rng); err == nil {
		t.Error("negative GPS std should error")
	}
	if _, err := NewSensor(1, w, respModel(), 0, nil); err == nil {
		t.Error("nil RNG should error")
	}
}

func TestSensorResponseRate(t *testing.T) {
	s := newTestSensor(t, 3, 0)
	field := ConstantField{Name: "c", V: 1}
	answered := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if obs := s.Request(0, 0, field); obs.Answered {
			answered++
		}
	}
	frac := float64(answered) / n
	if math.Abs(frac-0.4) > 0.03 {
		t.Fatalf("response rate %g, want ≈0.4", frac)
	}
}

func TestSensorIncentiveRaisesResponses(t *testing.T) {
	s := newTestSensor(t, 4, 0)
	field := ConstantField{Name: "c", V: 1}
	count := func(incentive float64) int {
		n := 0
		for i := 0; i < 3000; i++ {
			if s.Request(0, incentive, field).Answered {
				n++
			}
		}
		return n
	}
	low := count(0)
	high := count(5)
	if high <= low {
		t.Fatalf("incentive did not raise responses: %d vs %d", low, high)
	}
}

func TestSensorLatencyAndValue(t *testing.T) {
	s := newTestSensor(t, 5, 0)
	field := ConstantField{Name: "c", V: 42}
	var lat stats.Summary
	for i := 0; i < 5000; i++ {
		obs := s.Request(10, 100, field)
		if !obs.Answered {
			continue
		}
		if obs.T < 10 {
			t.Fatal("response before request")
		}
		if obs.Value != 42 {
			t.Fatal("value not read from field")
		}
		lat.Add(obs.T - 10)
	}
	if math.Abs(lat.Mean()-0.1) > 0.01 {
		t.Fatalf("mean latency %g, want ≈0.1", lat.Mean())
	}
}

func TestSensorGPSError(t *testing.T) {
	s := newTestSensor(t, 6, 0.5)
	var dist stats.Summary
	for i := 0; i < 3000; i++ {
		truePos := s.Position()
		rep := s.ReportedPosition()
		dist.Add(math.Hypot(rep.X-truePos.X, rep.Y-truePos.Y))
	}
	// Mean distance of 2-D Gaussian with σ=0.5 is σ√(π/2) ≈ 0.627.
	want := 0.5 * math.Sqrt(math.Pi/2)
	if math.Abs(dist.Mean()-want) > 0.05 {
		t.Fatalf("mean GPS error %g, want ≈%g", dist.Mean(), want)
	}
	noGPS := newTestSensor(t, 7, 0)
	if noGPS.ReportedPosition() != noGPS.Position() {
		t.Fatal("zero GPS error must report true position")
	}
}

func TestFleet(t *testing.T) {
	rng := stats.NewRNG(8)
	var list []*Sensor
	for i := 0; i < 20; i++ {
		w, _ := mobility.NewRandomWaypoint(region(), 1, 2, 0, rng.Fork())
		s, _ := NewSensor(i, w, respModel(), 0, rng.Fork())
		list = append(list, s)
	}
	f, err := NewFleet(region(), list)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sensors) != 20 {
		t.Fatal("fleet lost sensors")
	}
	before := make([]geom.Point, 20)
	for i, s := range f.Sensors {
		before[i] = s.Position()
	}
	f.Step(1)
	movedCount := 0
	for i, s := range f.Sensors {
		if s.Position() != before[i] {
			movedCount++
		}
	}
	if movedCount == 0 {
		t.Fatal("fleet did not move")
	}
	inAll := f.InRect(region())
	if len(inAll) != 20 {
		t.Fatalf("InRect(region) = %d", len(inAll))
	}
	if _, err := NewFleet(geom.Rect{}, list); err == nil {
		t.Error("empty region should error")
	}
}

func TestBuildFleet(t *testing.T) {
	cfg := FleetConfig{
		N: 50,
		Hotspots: []mobility.Hotspot{
			{Center: geom.Point{X: 3, Y: 3}, Sigma: 0.5, Weight: 1},
		},
		Response:        respModel(),
		UniformFraction: 0.2,
	}
	f, err := BuildFleet(region(), cfg, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sensors) != 50 {
		t.Fatalf("fleet size = %d", len(f.Sensors))
	}
	// Determinism: same seed ⇒ same initial positions.
	f2, err := BuildFleet(region(), cfg, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Sensors {
		if f.Sensors[i].Position() != f2.Sensors[i].Position() {
			t.Fatal("BuildFleet not deterministic")
		}
	}
	if _, err := BuildFleet(region(), FleetConfig{N: 0, Response: respModel()}, stats.NewRNG(1)); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := BuildFleet(region(), FleetConfig{N: 1, Response: respModel(), UniformFraction: 2}, stats.NewRNG(1)); err == nil {
		t.Error("bad uniform fraction should error")
	}
	// A negative dwell must be refused for hotspot walkers too: stepping one
	// would never return.
	negDwell := FleetConfig{N: 4, Hotspots: cfg.Hotspots, Dwell: -1, Response: respModel()}
	if _, err := BuildFleet(region(), negDwell, stats.NewRNG(1)); err == nil {
		t.Error("negative dwell should error")
	}
}

func TestBuildFleetSkew(t *testing.T) {
	// Hotspot fleets must produce spatially skewed positions after settling.
	cfg := FleetConfig{
		N: 300,
		Hotspots: []mobility.Hotspot{
			{Center: geom.Point{X: 2, Y: 2}, Sigma: 0.6, Weight: 1},
		},
		Dwell:    5,
		Response: respModel(),
	}
	f, err := BuildFleet(region(), cfg, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.Step(1)
	}
	near := len(f.InRect(geom.NewRect(0, 0, 4, 4)))
	if near < 150 {
		t.Fatalf("only %d of 300 sensors near the hotspot", near)
	}
}
