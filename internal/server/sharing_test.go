package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExplainReportsLiveSharedGroup: EXPLAIN on a query whose normal form is
// resident reports the live shared subplan's refs identically through the
// engine, the CrAQL EXPLAIN table, and the HTTP plan endpoint; and stops
// reporting it when the group drops below two members.
func TestExplainReportsLiveSharedGroup(t *testing.T) {
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
	sess, err := m.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	e := sess.Engine

	const stmt = "ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 6"
	q1, err := e.SubmitCRAQL(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// One resident query: no sharing to report.
	ex, err := e.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shared != nil {
		t.Fatalf("single query reported shared group: %+v", ex.Shared)
	}
	q2, err := e.SubmitCRAQL(stmt)
	if err != nil {
		t.Fatal(err)
	}

	// Engine surface: live refs.
	ex, err = e.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shared == nil || ex.Shared.Refs != 2 {
		t.Fatalf("Explain.Shared = %+v, want refs=2", ex.Shared)
	}
	if want := ex.Estimate.String() + "\nshared: refs=2 (subplan fabricated once, fanned out per query)\n"; ex.Table() != want {
		t.Fatalf("table = %q, want %q", ex.Table(), want)
	}

	// HTTP plan endpoint serves the same annotation.
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/s/queries/" + q2.ID + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	var planBody struct {
		Plan struct {
			Explain string `json:"explain"`
			Shared  *struct {
				Refs int `json:"refs"`
			} `json:"shared"`
		} `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if planBody.Plan.Shared == nil || planBody.Plan.Shared.Refs != 2 {
		t.Fatalf("HTTP shared = %+v, want refs=2", planBody.Plan.Shared)
	}
	if planBody.Plan.Explain != ex.Table() {
		t.Fatal("HTTP explain table diverges from engine rendering")
	}

	// Status counters reflect the live group.
	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/s/status")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for key, want := range map[string]string{
		"sharedPrefixes": "1",
		"sharedQueries":  "2",
		"sharedAttaches": "1",
	} {
		if got := strings.TrimSpace(string(status[key])); got != want {
			t.Fatalf("status %s = %s, want %s", key, got, want)
		}
	}
	if _, ok := status["subplans"]; !ok {
		t.Fatal("status missing subplans")
	}

	// After the group shrinks to one member the annotation disappears —
	// the stale-estimate bug this satellite fixed would have kept
	// reporting submit-time state.
	if err := e.Delete(q1.ID); err != nil {
		t.Fatal(err)
	}
	ex, err = e.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Shared != nil {
		t.Fatalf("shared annotation survived shrink to 1 ref: %+v", ex.Shared)
	}
}
