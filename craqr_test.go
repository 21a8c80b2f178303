package craqr_test

import (
	"math"
	"strings"
	"testing"

	craqr "repro"
	"repro/internal/craql"
	"repro/internal/mdpp"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README's
// quickstart does: build an engine, submit a CrAQL query, run epochs, read
// the fabricated stream.
func TestFacadeEndToEnd(t *testing.T) {
	region := craqr.NewRect(0, 0, 8, 8)
	rain, err := craqr.NewRainField(region, []craqr.Storm{{X0: 2, Y0: 2, VX: 0.2, VY: 0.1, Radius: 2}})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 15, Delta: 5, Min: 3, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        400,
			Response: craqr.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed: 42,
	}, map[string]craqr.Field{"rain": rain})
	if err != nil {
		t.Fatal(err)
	}
	q, err := engine.SubmitCRAQL("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(30); err != nil {
		t.Fatal(err)
	}
	tuples, err := engine.Results(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("quickstart produced no tuples")
	}
	rate := float64(len(tuples)) / (30 * q.Region.Area())
	if rate <= 0.5 || rate > 6 {
		t.Fatalf("delivered rate %g wildly off the requested 3", rate)
	}
}

// TestFacadeOperators runs the re-exported T-operator's kernel directly.
func TestFacadeOperators(t *testing.T) {
	rng := craqr.NewRNG(1)
	batch := craqr.Batch{Attr: "x", Window: craqr.NewWindow(0, 1, craqr.NewRect(0, 0, 4, 4))}
	for i := 0; i < 1600; i++ {
		batch.Tuples = append(batch.Tuples, craqr.Tuple{ID: uint64(i), T: rng.Float64(), X: 4 * rng.Float64(), Y: 4 * rng.Float64()})
	}

	th, err := craqr.NewThin("t", 100, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, draws := th.BeginFused()
	kept := 0
	for range batch.Tuples {
		if draws.Bernoulli(p) {
			kept++
		}
	}
	th.EndFused(batch.Len(), kept)
	if s := th.Stats(); s.TuplesIn != uint64(batch.Len()) || s.TuplesOut != uint64(kept) || s.RandomDraws != uint64(batch.Len()) {
		t.Fatalf("stats %+v after keeping %d of %d", s, kept, batch.Len())
	}
	frac := float64(kept) / float64(batch.Len())
	if math.Abs(frac-0.4) > 0.15 {
		t.Fatalf("thin kept %g, want ≈0.4", frac)
	}
}

// TestFacadeCRAQLRoundTrip checks that FormatCRAQL renders what the CrAQL
// parser reads back.
func TestFacadeCRAQLRoundTrip(t *testing.T) {
	q := craqr.Query{Attr: "temp", Region: craqr.NewRect(1, 2, 5, 6), Rate: 4}
	q2, err := craql.Parse(craqr.FormatCRAQL(q))
	if err != nil {
		t.Fatal(err)
	}
	if q2.Attr != q.Attr || !q2.Region.Equal(q.Region) || q2.Rate != q.Rate {
		t.Fatal("round trip changed the query")
	}
}

// TestFacadeEstimation checks FitMLE through the facade.
func TestFacadeEstimation(t *testing.T) {
	rng := craqr.NewRNG(3)
	region := craqr.NewRect(0, 0, 8, 8)
	truth := craqr.Theta{8, 0.3, -0.2, 0.4}
	proc, err := mdpp.NewInhomogeneous(craqr.NewLinearIntensity(truth), region)
	if err != nil {
		t.Fatal(err)
	}
	w := craqr.NewWindow(0, 4, region)
	events, err := proc.Sample(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := craqr.FitMLE(events, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta[0]-truth[0]) > 2 {
		t.Fatalf("theta0 = %g, truth %g", theta[0], truth[0])
	}
}

// TestFacadeInferenceAndExport exercises the inference/export re-exports the
// stormwatch example relies on.
func TestFacadeInferenceAndExport(t *testing.T) {
	cov, err := craqr.NewCoverageEstimator(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sink, err := craqr.NewJSONLinesSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tee := &craqr.Tee{Children: []craqr.Processor{cov, sink}}
	b := craqr.Batch{
		Attr:   "rain",
		Window: craqr.NewWindow(0, 1, craqr.NewRect(0, 0, 2, 2)),
		Tuples: []craqr.Tuple{
			{ID: 1, Attr: "rain", T: 0.25, X: 1, Y: 1, Value: 1},
			{ID: 2, Attr: "rain", T: 0.75, X: 0.5, Y: 0.5, Value: 0},
		},
	}
	if err := tee.Process(b); err != nil {
		t.Fatal(err)
	}
	ests := cov.Estimates()
	if len(ests) != 1 || ests[0].Coverage != 0.5 {
		t.Fatalf("coverage estimates = %+v", ests)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := `{"id":1,"attr":"rain","t":0.25,"x":1,"y":1,"value":1,"sensor":0}`; len(lines) != 2 || lines[0] != want {
		t.Fatalf("ndjson = %q, want 2 lines starting %s", lines, want)
	}
	det, err := craqr.NewEventDetector(0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	det.Observe(0, 1, 0.5)
	if events := det.Finish(1); len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
}

// TestFacadePlanner prices a query through Engine.Explain and the planner
// re-exports.
func TestFacadePlanner(t *testing.T) {
	region := craqr.NewRect(0, 0, 32, 32)
	rain, err := craqr.NewRainField(region, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := craqr.NewEngine(craqr.EngineConfig{
		Region:    region,
		GridCells: 256,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet:     craqr.FleetConfig{N: 10, Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1}},
	}, map[string]craqr.Field{"rain": rain})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.Explain("EXPLAIN ACQUIRE rain FROM RECT(0, 0, 16, 2) RATE 5")
	if err != nil {
		t.Fatal(err)
	}
	var est craqr.CostEstimate = ex.Estimate
	// 8 cells in a row under one U-operator: 8 T taps + 1 U at depth 1.
	if est.Depth != 1 || est.Operators != 9 {
		t.Fatalf("estimate %+v, want depth 1 and 9 operators", est)
	}
	if est.Total <= 0 {
		t.Fatal("planner returned non-positive cost")
	}
}
