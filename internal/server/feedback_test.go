package server

import (
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/budget"
	"repro/internal/geom"
)

// TestUnrunFlattenIsNotObserved pins the one rule observeEpoch adds to the
// reports it walks: an F-operator that has not run since it was built (a
// query submitted between two attributes' ingests of one epoch) reports
// Batch 0 and no observation, so it moves no budget, opens no adaptive slot
// and adds no N_v sample.
func TestUnrunFlattenIsNotObserved(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptiveRates = true
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"); err != nil {
		t.Fatal(err)
	}
	if err := e.observeEpoch(); err != nil {
		t.Fatal(err)
	}
	if e.nvN != 0 || e.MeanViolation() != 0 {
		t.Errorf("N_v samples = %d (mean %g), want none", e.nvN, e.MeanViolation())
	}
	if s := e.adaptive.Snapshots(); len(s) != 0 {
		t.Errorf("adaptive slots = %+v, want none", s)
	}
	if s := e.budgets.Snapshots(); len(s) != 1 || s[0].Adjustments != 0 || s[0].Budget != cfg.Budget.Initial {
		t.Errorf("budget slots = %+v, want one registered, unobserved slot", s)
	}
}

// TestStarvedEpochRaisesBudget: an epoch in which a cell receives no
// observation reports N_v = 100, and observeEpoch raises that cell's
// acquisition budget by Δβ.
func TestStarvedEpochRaisesBudget(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceExternal})
	if _, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PushObservations(nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig().Budget
	want := budget.Snapshot{Key: budget.Key{Attr: "rain", Cell: geom.CellID{Q: 0, R: 0}}, Budget: cfg.Initial + cfg.Delta, LastNv: 100, Adjustments: 1}
	if s := e.Budgets().Snapshots(); len(s) != 1 || s[0] != want {
		t.Fatalf("budget slots after a starved epoch = %+v, want [%+v]", s, want)
	}
}

// TestStatusBudgetsFollowQueries: a query's budget slots show in /status
// as soon as its submit returns and are gone as soon as its delete returns,
// with no epoch in between.
func TestStatusBudgetsFollowQueries(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"b"}`, 201, nil)
	var q client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/b/queries", "ACQUIRE temp FROM RECT(0,0,4,2) RATE 5", 201, &q)
	var st client.Status
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/b/status", "", 200, &st)
	if len(st.Budgets) != 2 || st.Budgets[0].Attr != "temp" || st.Budgets[1].Q != 1 {
		t.Fatalf("/status budgets after submit = %+v, want temp's two cells", st.Budgets)
	}
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/b/queries/"+q.ID, "", 200, nil)
	st = client.Status{}
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/b/status", "", 200, &st)
	if len(st.Budgets) != 0 {
		t.Fatalf("/status budgets after delete = %+v, want none", st.Budgets)
	}
}

// TestFeedbackMatchesAcrossWorkers runs one submit/delete churn script on an
// adaptive session at one and at four epoch workers: after every epoch the
// budgets and adaptive slots /status shows must be the same, since the
// feedback is read from the reports after the epoch, not from the workers.
func TestFeedbackMatchesAcrossWorkers(t *testing.T) {
	engines := make([]*Engine, 2)
	for i, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.AdaptiveRates = true
		cfg.Fabricator.Workers = workers
		e, err := New(cfg, testFields(t))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	script := []struct {
		submit, del string
		steps       int
	}{
		{submit: "ACQUIRE rain FROM RECT(0,0,6,6) RATE 40", steps: 3},
		{submit: "ACQUIRE temp FROM RECT(2,2,8,8) RATE 5", steps: 2},
		{submit: "ACQUIRE rain FROM RECT(4,0,8,4) RATE 90", steps: 4},
		{del: "Q1", steps: 3},
		{submit: "ACQUIRE rain FROM RECT(0,0,6,6) RATE 40", steps: 2},
		{del: "Q3", steps: 2},
		{del: "Q2", steps: 3},
	}
	for i, op := range script {
		for _, e := range engines {
			var err error
			if op.submit != "" {
				_, err = e.SubmitCRAQL(op.submit)
			} else {
				err = e.Delete(op.del)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		for s := 0; s < op.steps; s++ {
			for _, e := range engines {
				if err := e.Step(); err != nil {
					t.Fatalf("op %d step %d: %v", i, s, err)
				}
			}
			serial, parallel := engines[0], engines[1]
			budgets, adaptive := serial.budgets.Snapshots(), serial.adaptive.Snapshots()
			if len(budgets) == 0 || len(adaptive) != len(budgets) {
				t.Fatalf("op %d step %d: %d budget slots, %d adaptive ones", i, s, len(budgets), len(adaptive))
			}
			if got := parallel.budgets.Snapshots(); !reflect.DeepEqual(got, budgets) {
				t.Fatalf("op %d step %d: budgets at workers=4\n%+v\nat workers=1\n%+v", i, s, got, budgets)
			}
			if got := parallel.adaptive.Snapshots(); !reflect.DeepEqual(got, adaptive) {
				t.Fatalf("op %d step %d: adaptive slots at workers=4\n%+v\nat workers=1\n%+v", i, s, got, adaptive)
			}
		}
	}
}

// TestObserveEpochAllocs gates the report walk at zero allocations per
// epoch on a nine-pipeline session with adaptive rates on.
func TestObserveEpochAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptiveRates = true
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,6,6) RATE 40"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if n := e.Fabricator().NumPipelines(); n != 9 {
		t.Fatalf("pipelines = %d, want 9", n)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.observeEpoch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("observeEpoch allocates %.1f times per epoch, want 0", allocs)
	}
	if len(e.adaptive.Snapshots()) != 9 {
		t.Fatalf("adaptive slots = %d, want 9", len(e.adaptive.Snapshots()))
	}
}
