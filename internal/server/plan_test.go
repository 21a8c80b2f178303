package server

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/stats"
	"repro/internal/stream"
)

// TestExplainGoldenAgainstEstimate is the EXPLAIN acceptance golden test:
// the table served by Engine.Explain must be byte-identical to rendering
// planner.EstimateQueryCost for the same grid, query and epoch length under
// the default weights — one line, and no other.
func TestExplainGoldenAgainstEstimate(t *testing.T) {
	e := newEngine(t)
	const src = "EXPLAIN ACQUIRE rain FROM RECT(0, 0, 6, 4) RATE 8"
	ex, err := e.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 6, 4), Rate: 8}
	est, err := planner.EstimateQueryCost(e.Grid(), q, 1, planner.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.Table(), est.String()+"\n"; got != want {
		t.Fatalf("EXPLAIN table diverges from planner.EstimateQueryCost:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasPrefix(ex.Table(), "flat: ops=") {
		t.Fatalf("EXPLAIN table %q does not start with the flat estimate", ex.Table())
	}
	// The plain form explains identically.
	ex2, err := e.Explain("ACQUIRE rain FROM RECT(0, 0, 6, 4) RATE 8")
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Table() != ex.Table() {
		t.Fatal("plain and EXPLAIN forms price differently")
	}
}

// TestHTTPExplainAndPlanEndpoint drives EXPLAIN and the plan endpoint over
// HTTP: an EXPLAIN POST answers with the table and registers nothing; the
// plan route answers with the live query's EXPLAIN and nothing else.
func TestHTTPExplainAndPlanEndpoint(t *testing.T) {
	m := newManager(t, ManagerConfig{})
	if _, err := m.Create(SessionSpec{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	hs, err := NewManagerHTTPServer(m, "s")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()

	const stmt = "ACQUIRE rain FROM RECT(0, 0, 6, 4) RATE 8"
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/s/queries", "text/plain", strings.NewReader("EXPLAIN "+stmt))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("EXPLAIN status = %d", resp.StatusCode)
	}
	var exBody map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&exBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var keys []string
	for k := range exBody {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"estimate", "explain", "query"}; !slices.Equal(keys, want) {
		t.Fatalf("EXPLAIN keys = %v, want %v", keys, want)
	}
	var explain string
	if err := json.Unmarshal(exBody["explain"], &explain); err != nil {
		t.Fatal(err)
	}
	sess, err := m.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Engine.Queries()); got != 0 {
		t.Fatalf("EXPLAIN registered %d queries", got)
	}
	// The HTTP table is byte-identical to the engine-side (and therefore
	// planner-side) rendering.
	engineEx, err := sess.Engine.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if explain != engineEx.Table() {
		t.Fatalf("HTTP explain diverges from Explanation.Table:\n%q\n%q", explain, engineEx.Table())
	}

	// Submit for real, then read the plan endpoint.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/s/queries", "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 201 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var qBody struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/s/queries/" + qBody.ID + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	var planBody map[string]struct {
		Explain string `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	plan, ok := planBody["plan"]
	if !ok || len(planBody) != 1 {
		t.Fatalf("plan payload = %+v, want only plan", planBody)
	}
	if plan.Explain != engineEx.Table() {
		t.Fatal("plan endpoint table diverges from Explanation.Table")
	}

	// Unknown query 404s.
	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/s/queries/nope/plan")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("unknown plan status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// starvedConfig builds a workload whose cells cannot satisfy their target
// rate at nominal scale but can within the adaptive scale floor: the
// rate-retune loop should converge them to the feasible rate and quiet the
// violation alarms.
func starvedConfig() Config {
	cfg := testConfig()
	cfg.Fleet = sensors.FleetConfig{
		N:        300,
		Response: sensors.ResponseModel{BaseProb: 0.7, MaxProb: 0.9, IncentiveScale: 1, MeanLatency: 0.02},
	}
	return cfg
}

// tempFields is the tempmonitor workload's ground truth: one temperature
// field, built per session.
func tempFields() (map[string]sensors.Field, error) {
	temp, err := sensors.NewTempField(18, 0.5, -0.2, 5, 24, 0, nil)
	if err != nil {
		return nil, err
	}
	return map[string]sensors.Field{"temp": temp}, nil
}

// TestAdaptiveRatesLowerMeanViolation is the adaptivity acceptance test: on
// the tempmonitor workload (a temperature field, one region-wide query at a
// rate the fleet cannot satisfy), a session with budget adaptation enabled
// must reach a strictly lower mean normalized violation than the
// static-rate run — asserted service-level through the one per-session
// lever the spec keeps, adaptiveRates.
func TestAdaptiveRatesLowerMeanViolation(t *testing.T) {
	m := newManager(t, ManagerConfig{NewEngine: NewEngineFactory(starvedConfig(), tempFields)})
	static, err := m.Create(SessionSpec{Name: "static", Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	on := true
	adaptive, err := m.Create(SessionSpec{Name: "adaptive", Seed: 77, AdaptiveRates: &on})
	if err != nil {
		t.Fatal(err)
	}
	if static.Engine.AdaptiveEnabled() {
		t.Fatal("static session reports adaptive")
	}
	if !adaptive.Engine.AdaptiveEnabled() {
		t.Fatal("adaptive session reports static")
	}
	const src = "ACQUIRE temp FROM RECT(0, 0, 8, 8) RATE 5"
	for _, sess := range []*Session{static, adaptive} {
		if _, err := sess.Engine.SubmitCRAQL(src); err != nil {
			t.Fatal(err)
		}
		if err := sess.Engine.Run(30); err != nil {
			t.Fatal(err)
		}
	}
	sNv, aNv := static.Engine.MeanViolation(), adaptive.Engine.MeanViolation()
	if sNv == 0 {
		t.Fatal("static run saw no violations; the workload is not starved and the test is vacuous")
	}
	if !(aNv < sNv) {
		t.Fatalf("adaptive mean N_v %.2f not strictly below static %.2f", aNv, sNv)
	}
	// The adaptive run actually retuned: at least one slot left scale 1.
	scaled := false
	for _, sl := range toStatusJSON(adaptive.Name, adaptive.Engine).AdaptiveSlots {
		if sl.Scale < 1 {
			scaled = true
			break
		}
	}
	if !scaled {
		t.Fatal("adaptive session never retuned a pipeline")
	}
}

// TestSessionSpecPlannerPlumbing checks what is left of planner control at
// the session layer: adaptiveRates is the one lever a create body carries,
// and the removed lever fields are refused by name instead of being
// silently ignored.
func TestSessionSpecPlannerPlumbing(t *testing.T) {
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, testConfig())})
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()

	var sj map[string]interface{}
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", `{"name":"ab","adaptiveRates":true}`, 201, &sj)
	if sj["adaptive"] != true {
		t.Fatalf("session JSON adaptive = %v, want true", sj["adaptive"])
	}
	sess, err := m.Get("ab")
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Engine.AdaptiveEnabled() {
		t.Fatal("adaptiveRates not plumbed")
	}

	for _, field := range []string{"disableFused", "disablePlanner", "disableSharing", "disableAdaptive"} {
		var refusal struct {
			Error string `json:"error"`
		}
		doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", `{"name":"bad","`+field+`":true}`, 400, &refusal)
		if !strings.Contains(refusal.Error, field) {
			t.Fatalf("refusal of %s does not name it: %q", field, refusal.Error)
		}
	}
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", `{"name":"bad","plannerWeights":{"perTuple":1}}`, 400, nil)
	if _, err := m.Get("bad"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("a refused spec created a session: %v", err)
	}
}

// TestStatusReportsPlansAndAdaptivity checks the /status adaptivity
// fields: adaptive, meanNv, the fit totals and adaptive slots. (Per-query
// plans left /status with submit-time planning; the plan route serves a
// query's EXPLAIN.)
func TestStatusReportsPlansAndAdaptivity(t *testing.T) {
	m := newManager(t, ManagerConfig{NewEngine: NewEngineFactory(starvedConfig(), tempFields)})
	on := true
	if _, err := m.Create(SessionSpec{Name: "s", Seed: 3, AdaptiveRates: &on}); err != nil {
		t.Fatal(err)
	}
	hs, err := NewManagerHTTPServer(m, "s")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()

	if resp, err := ts.Client().Post(ts.URL+"/v1/sessions/s/queries", "text/plain",
		strings.NewReader("ACQUIRE temp FROM RECT(0, 0, 8, 8) RATE 5")); err != nil || resp.StatusCode != 201 {
		t.Fatalf("submit: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := ts.Client().Post(ts.URL+"/v1/sessions/s/step?n=12", "", nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("step: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/s/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Adaptive      bool    `json:"adaptive"`
		MeanNv        float64 `json:"meanNv"`
		FitIterations *uint64 `json:"fitIterations"`
		NotConverged  *uint64 `json:"fitsNotConverged"`
		AdaptiveSlots []struct {
			Scale float64 `json:"scale"`
		} `json:"adaptiveSlots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !status.Adaptive {
		t.Fatal("status adaptive = false on an adaptive session")
	}
	if status.MeanNv <= 0 {
		t.Fatalf("meanNv = %g on a starved workload", status.MeanNv)
	}
	if len(status.AdaptiveSlots) == 0 {
		t.Fatal("no adaptive slots on a starved workload")
	}
	if status.FitIterations == nil || status.NotConverged == nil {
		t.Fatal("status lacks fitIterations/fitsNotConverged")
	}
}

// TestFitStatsAccumulate: the session totals behind /status's fitIterations
// and fitsNotConverged move with the F-operators' fits — iterations on
// epochs whose cells hold enough spread-out tuples to fit, a non-converged
// fit when a cell's tuples all sit at one position — and, like meanNv,
// survive the deletion of the query whose pipelines produced them.
func TestFitStatsAccumulate(t *testing.T) {
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, externalConfig("", 0))})
	sess, err := m.Create(SessionSpec{Name: "fit"})
	if err != nil {
		t.Fatal(err)
	}
	e := sess.Engine
	fitStats := func() (uint64, uint64) {
		st := toStatusJSON(sess.Name, e)
		return st.FitIterations, st.FitsNotConverged
	}
	q, err := e.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 5})
	if err != nil {
		t.Fatal(err)
	}
	// pushOp's tuples fall on one line per cell; these fill the cells.
	rng := stats.NewRNG(17)
	spread := make([]stream.Tuple, 600)
	for i := range spread {
		spread[i] = stream.Tuple{ID: uint64(i + 1), Attr: "rain", Value: 1,
			T: rng.Uniform(0, 1), X: rng.Uniform(0, 8), Y: rng.Uniform(0, 8)}
	}
	applyOp(t, e, durOp{kind: "push", tuples: spread, watermark: 1})
	applyOp(t, e, durOp{kind: "step"})
	iters, bad := fitStats()
	if iters == 0 || bad != 0 {
		t.Fatalf("after a well-spread epoch: %d iterations, %d not converged", iters, bad)
	}
	point := make([]stream.Tuple, 40)
	for i := range point {
		point[i] = stream.Tuple{ID: uint64(5000 + i), Attr: "rain", T: 1.5, X: 1, Y: 1, Value: 1}
	}
	applyOp(t, e, durOp{kind: "push", tuples: point, watermark: 2})
	applyOp(t, e, durOp{kind: "step"})
	iters2, bad2 := fitStats()
	if bad2 == 0 || iters2 < iters {
		t.Fatalf("after a one-position epoch: %d iterations (was %d), %d not converged", iters2, iters, bad2)
	}
	if err := e.Delete(q.ID); err != nil {
		t.Fatal(err)
	}
	if i3, b3 := fitStats(); i3 != iters2 || b3 != bad2 {
		t.Fatalf("totals moved on delete: %d/%d, were %d/%d", i3, b3, iters2, bad2)
	}
}

// TestDisableAdaptiveOverridesTemplate checks the tri-state adaptiveRates:
// on a manager whose template enables adaptive rates (craqrd -budget), a
// body without the field inherits it and "adaptiveRates":false runs the
// static control.
func TestDisableAdaptiveOverridesTemplate(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptiveRates = true
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, cfg)})
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()

	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", `{"name":"inherit"}`, 201, nil)
	doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", `{"name":"control","adaptiveRates":false}`, 201, nil)
	inherit, err := m.Get("inherit")
	if err != nil {
		t.Fatal(err)
	}
	if !inherit.Engine.AdaptiveEnabled() {
		t.Fatal("template adaptiveRates not inherited")
	}
	control, err := m.Get("control")
	if err != nil {
		t.Fatal(err)
	}
	if control.Engine.AdaptiveEnabled() {
		t.Fatal("adaptiveRates:false did not override the template")
	}
}

// TestManifestPinsAdaptivity: a durable session created under a template
// with adaptive rates on (craqrd -budget) must replay with them on when it
// is recovered by a manager whose template has them off — a daemon
// restarted without -budget, or a cluster node that never had it. The
// manifest records the resolved value; without it the recovered engine
// retunes nothing and fabricates a different stream.
func TestManifestPinsAdaptivity(t *testing.T) {
	root := t.TempDir()
	manager := func(adaptive bool, dir string) *Manager {
		template := starvedConfig()
		template.AdaptiveRates = adaptive
		if dir != "" {
			template.Durability = DurabilityConfig{Dir: dir}
		}
		return newManager(t, ManagerConfig{NewEngine: NewEngineFactory(template, tempFields), DurabilityDir: dir})
	}
	const src = "ACQUIRE temp FROM RECT(0, 0, 8, 8) RATE 5"
	run := func(sess *Session, submit bool, epochs int) {
		t.Helper()
		if submit {
			if _, err := sess.Engine.SubmitCRAQL(src); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Engine.Run(epochs); err != nil {
			t.Fatal(err)
		}
	}

	uninterrupted, err := manager(true, "").Create(SessionSpec{Name: "ref", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	run(uninterrupted, true, 20)
	want, err := uninterrupted.Engine.Results("Q1")
	if err != nil {
		t.Fatal(err)
	}

	m1 := manager(true, root)
	durable, err := m1.Create(SessionSpec{Name: "d", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	run(durable, true, 12)
	retuned := false
	for _, sl := range toStatusJSON(durable.Name, durable.Engine).AdaptiveSlots {
		retuned = retuned || sl.Scale < 1
	}
	if !retuned {
		t.Fatal("no retune before the restart; the test is vacuous")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	spec, err := readManifest(sessionDir(root, "d"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.AdaptiveRates == nil || !*spec.AdaptiveRates {
		t.Fatalf("manifest adaptiveRates = %v, want an explicit true", spec.AdaptiveRates)
	}

	m2 := manager(false, root)
	if names, err := m2.Recover(); err != nil || len(names) != 1 {
		t.Fatalf("Recover under a static template = %v, %v", names, err)
	}
	recovered, err := m2.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Engine.AdaptiveEnabled() {
		t.Fatal("recovered session lost adaptivity to the new template")
	}
	run(recovered, false, 8)
	got, err := recovered.Engine.Results("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run fabricated %d tuples, uninterrupted %d; streams differ", len(got), len(want))
	}
	// A create over the leftover state that asks for the other value is a
	// spec conflict, like a different seed.
	if err := m2.Release("d"); err != nil {
		t.Fatal(err)
	}
	off := false
	if _, err := m2.Create(SessionSpec{Name: "d", Seed: 31, AdaptiveRates: &off}); err == nil || !strings.Contains(err.Error(), "adaptiveRates") {
		t.Fatalf("conflicting adaptiveRates over durable state: err = %v", err)
	}
}
