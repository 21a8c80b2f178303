package server

import (
	"math"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/budget"
	"repro/internal/geom"
	"repro/internal/incentive"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stream"
	"repro/internal/topology"
)

func testConfig() Config {
	return Config{
		Region:    geom.NewRect(0, 0, 8, 8),
		GridCells: 16,
		Epoch:     1,
		Budget:    budget.Config{Initial: 20, Delta: 5, Min: 5, Max: 200, ViolationThreshold: 10},
		Fleet: sensors.FleetConfig{
			N:        300,
			Response: sensors.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed: 1,
	}
}

func testFields(t *testing.T) map[string]sensors.Field {
	t.Helper()
	rain, err := sensors.NewRainField(geom.NewRect(0, 0, 8, 8), []sensors.Storm{{X0: 2, Y0: 2, VX: 0.1, VY: 0, Radius: 2}})
	if err != nil {
		t.Fatal(err)
	}
	temp, err := sensors.NewTempField(20, 0.2, 0, 3, 24, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sensors.Field{"rain": rain, "temp": temp}
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(testConfig(), testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testConfig(), nil); err == nil {
		t.Error("no fields should error")
	}
	cfg := testConfig()
	cfg.Epoch = 0
	if _, err := New(cfg, testFields(t)); err == nil {
		t.Error("zero epoch should error")
	}
	cfg = testConfig()
	cfg.GridCells = 7
	if _, err := New(cfg, testFields(t)); err == nil {
		t.Error("non-square grid should error")
	}
	cfg = testConfig()
	cfg.Budget = budget.Config{}
	if _, err := New(cfg, testFields(t)); err == nil {
		t.Error("bad budget config should error")
	}
	cfg = testConfig()
	cfg.Fleet.N = 0
	if _, err := New(cfg, testFields(t)); err == nil {
		t.Error("empty fleet should error")
	}
}

func TestSubmitAndRun(t *testing.T) {
	e := newEngine(t)
	q, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "Q1" {
		t.Fatalf("id = %s", q.ID)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() != 20 || e.Now() != 20 {
		t.Fatalf("epochs=%d now=%g", e.Epochs(), e.Now())
	}
	tuples, err := e.Results(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("no tuples fabricated")
	}
	for _, tp := range tuples {
		if tp.Attr != "rain" {
			t.Fatal("wrong attribute in results")
		}
		if !geom.NewRect(0, 0, 4, 4).Contains(geom.Point{X: tp.X, Y: tp.Y}) {
			t.Fatalf("tuple outside query region: %v", tp)
		}
		if tp.Value != 0 && tp.Value != 1 {
			t.Fatalf("rain value = %g", tp.Value)
		}
	}
}

func TestRateTracksRequest(t *testing.T) {
	e := newEngine(t)
	q, err := e.Submit(query.Query{Attr: "temp", Region: geom.NewRect(0, 0, 4, 4), Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	warmup := 10
	if err := e.Run(warmup); err != nil {
		t.Fatal(err)
	}
	before, _ := e.Results(q.ID)
	measured := 40
	if err := e.Run(measured); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Results(q.ID)
	got := float64(len(after)-len(before)) / (float64(measured) * 16)
	if math.Abs(got-2) > 1 {
		t.Fatalf("delivered rate %g, want ≈2", got)
	}
}

func TestSubmitCRAQL(t *testing.T) {
	e := newEngine(t)
	q, err := e.SubmitCRAQL("ACQUIRE temp FROM RECT(0, 0, 4, 4) RATE 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "temp" {
		t.Fatal("CRAQL submit wrong")
	}
	if _, err := e.SubmitCRAQL("garbage"); err == nil {
		t.Fatal("bad CRAQL accepted")
	}
}

func TestDelete(t *testing.T) {
	e := newEngine(t)
	q, _ := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err := e.Delete(q.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Results(q.ID); err == nil {
		t.Fatal("results survive deletion")
	}
	if err := e.Delete(q.ID); err == nil {
		t.Fatal("double delete should error")
	}
	if len(e.Queries()) != 0 {
		t.Fatal("query list not empty")
	}
}

func TestBudgetsReactToStarvation(t *testing.T) {
	// A tiny fleet cannot satisfy an aggressive rate: budgets must climb.
	cfg := testConfig()
	cfg.Fleet.N = 10
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 50}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	total := e.Budgets().TotalBudget()
	initial := 20.0 * float64(len(e.Budgets().Snapshots()))
	if total <= initial {
		t.Fatalf("budgets did not climb under starvation: %g <= %g", total, initial)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() int {
		e := newEngine(t)
		q, _ := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
		_ = e.Run(10)
		tuples, _ := e.Results(q.ID)
		return len(tuples)
	}
	if run() != run() {
		t.Fatal("same seed produced different runs")
	}
}

func TestEngineWithIncentives(t *testing.T) {
	cfg := testConfig()
	cfg.Fleet.Response = sensors.ResponseModel{BaseProb: 0.1, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0.02}
	alloc, err := incentive.NewAllocator(cfg.Fleet.Response, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Incentives = alloc
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 20}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	spent := 0.0
	for _, s := range e.budgets.Snapshots() {
		spent += alloc.Incentive(s.Key)
	}
	if spent <= 0 {
		t.Fatal("incentives never allocated despite starvation")
	}
}

func TestSubmitWithSink(t *testing.T) {
	e := newEngine(t)
	var got int
	sink := sinkFunc(func(n int) { got += n })
	if _, err := e.SubmitWithSink(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3}, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("custom sink never fed")
	}
}

// sinkFunc adapts a counting func to stream.Processor.
type sinkFunc func(n int)

// Process implements stream.Processor.
func (f sinkFunc) Process(b stream.Batch) error {
	f(b.Len())
	return nil
}

// TestHTTPEndToEnd drives one session through every engine route:
// submit, step, results, status, list, delete, and their 400/404/405 cases.
func TestHTTPEndToEnd(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"e2e"}`, 201, nil)
	base := ts.URL + "/v1/sessions/e2e"

	var qj client.Query
	doJSON(t, c, "POST", base+"/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)
	if qj.ID != "Q1" || qj.Rate != 3 {
		t.Fatalf("query json = %+v", qj)
	}
	doJSON(t, c, "POST", base+"/step?n=10", "", 200, nil)

	var rj struct {
		Retained int `json:"retained"`
		Tuples   []struct {
			T float64 `json:"t"`
		} `json:"tuples"`
	}
	doJSON(t, c, "GET", base+"/results/Q1?limit=5", "", 200, &rj)
	if rj.Retained == 0 {
		t.Fatal("no results over HTTP")
	}
	if len(rj.Tuples) > 5 {
		t.Fatal("limit ignored")
	}

	var st client.Status
	doJSON(t, c, "GET", base+"/status", "", 200, &st)
	if st.Queries != 1 {
		t.Fatalf("status queries = %v", st.Queries)
	}
	doJSON(t, c, "GET", base+"/queries", "", 200, nil)
	doJSON(t, c, "DELETE", base+"/queries/Q1", "", 200, nil)

	// Errors.
	doJSON(t, c, "GET", base+"/results/QX", "", 404, nil)
	doJSON(t, c, "POST", base+"/queries", "bad", 400, nil)
	// A statement past the 64 KiB cap is refused whole, not parsed from its
	// first 64 KiB (which hold a valid query and trailing blanks).
	doJSON(t, c, "POST", base+"/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3"+strings.Repeat(" ", 1<<16)+"junk", 413, nil)
	doJSON(t, c, "GET", base+"/status", "", 200, &st)
	if st.Queries != 0 {
		t.Fatalf("an oversized statement registered a query: status queries = %v", st.Queries)
	}
	doJSON(t, c, "POST", base+"/step?n=abc", "", 400, nil)
	doJSON(t, c, "GET", base+"/step", "", 405, nil)

	// A session spec is one JSON object and trailing whitespace: a second
	// value after it is a 400, and a spec padded past the 64 KiB cap is
	// refused whole (413); neither creates its session.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"ws"}`+"\n\t ", 201, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"a"}{"seed":1}`, 400, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"b"}`+strings.Repeat(" ", 1<<16), 413, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/a", "", 404, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/b", "", 404, nil)
}

func TestFabricatorConfigPlumbed(t *testing.T) {
	// The engine hands Config.Fabricator to its fabricator as given.
	cfg := testConfig()
	cfg.Fabricator = topology.Config{Workers: 3}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	fab := e.Fabricator()
	if fab.Workers() != 3 {
		t.Fatalf("fabricator workers = %d, want 3", fab.Workers())
	}
	q, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 2), Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A multi-cell query merges under one U-operator.
	if ops := fab.OperatorCounts(); ops["U"] != 1 || ops["T"] < 2 {
		t.Fatalf("query %s: operators %v, want one U-operator over several cells", q.ID, ops)
	}
}

func TestInfeasibleQueryFlagged(t *testing.T) {
	// Failure injection: a near-silent fleet with a tight budget cap cannot
	// serve an aggressive rate; the paper says the user must then "either
	// accept the feasible rate or pay more" — the slot is flagged.
	cfg := testConfig()
	cfg.Fleet.N = 30
	cfg.Fleet.Response = sensors.ResponseModel{BaseProb: 0.05, MaxProb: 0.2, IncentiveScale: 1}
	cfg.Budget = budget.Config{Initial: 5, Delta: 5, Min: 1, Max: 20, ViolationThreshold: 5}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	infeasible := 0
	for _, s := range e.Budgets().Snapshots() {
		if s.Infeasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("no slot flagged infeasible despite impossible rate and capped budget")
	}
}

func TestMultiAttributeEnginesIsolateStreams(t *testing.T) {
	e := newEngine(t)
	qRain, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err != nil {
		t.Fatal(err)
	}
	qTemp, err := e.Submit(query.Query{Attr: "temp", Region: geom.NewRect(0, 0, 4, 4), Rate: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	rain, _ := e.Results(qRain.ID)
	temp, _ := e.Results(qTemp.ID)
	if len(rain) == 0 || len(temp) == 0 {
		t.Fatal("one attribute starved")
	}
	for _, tp := range rain {
		if tp.Attr != "rain" {
			t.Fatal("cross-attribute leakage into rain stream")
		}
	}
	for _, tp := range temp {
		if tp.Attr != "temp" {
			t.Fatal("cross-attribute leakage into temp stream")
		}
		if tp.Value == 0 || tp.Value == 1 {
			continue // temperatures can coincidentally be 0/1; no assert
		}
	}
}

func TestSubmitScript(t *testing.T) {
	e := newEngine(t)
	qs, err := e.SubmitScript(`
-- two queries
ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3;
ACQUIRE temp FROM RECT(4, 0, 8, 4) RATE 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].ID != "Q1" || qs[1].ID != "Q2" {
		t.Fatalf("script queries = %+v", qs)
	}
	if len(e.Queries()) != 2 {
		t.Fatal("queries not live")
	}
}

func TestSubmitScriptRollsBack(t *testing.T) {
	e := newEngine(t)
	// Second statement is parseable but invalid (region off grid).
	_, err := e.SubmitScript(`
ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 3;
ACQUIRE temp FROM RECT(100, 100, 104, 104) RATE 2;
`)
	if err == nil {
		t.Fatal("invalid script accepted")
	}
	if len(e.Queries()) != 0 {
		t.Fatal("partial script not rolled back")
	}
}

func TestHTTPScriptEndpoint(t *testing.T) {
	ts, hs := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"e2e"}`, 201, nil)
	base := ts.URL + "/v1/sessions/e2e"

	script := "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3;\n-- comment\nACQUIRE temp FROM RECT(4,0,8,4) RATE 2;"
	var out []struct {
		ID string `json:"id"`
	}
	doJSON(t, c, "POST", base+"/script", script, 201, &out)
	if len(out) != 2 {
		t.Fatalf("submitted %d queries", len(out))
	}
	// Atomic failure: bad script leaves nothing behind.
	doJSON(t, c, "POST", base+"/script", "ACQUIRE x FROM RECT(0,0,4,4) RATE 3; garbage", 400, nil)
	sess, err := hs.manager.Get("e2e")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sess.Engine.Queries()); n != 2 {
		t.Fatalf("queries after failed script = %d", n)
	}
	// Method check.
	doJSON(t, c, "GET", base+"/script", "", 405, nil)
}
