package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/wal"
)

// sharingPool is the shared query population for the differential harness:
// few enough distinct shapes that random sampling collides constantly (the
// whole point of dedup), spanning both attributes, whole-cell and
// grid-wide regions, and a spread of rates.
func sharingPool() []query.Query {
	return []query.Query{
		{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6},
		{Attr: "rain", Region: geom.NewRect(2, 2, 6, 6), Rate: 3},
		{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 9},
		{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 1},
		{Attr: "temp", Region: geom.NewRect(4, 4, 8, 8), Rate: 4},
		{Attr: "temp", Region: geom.NewRect(0, 4, 4, 8), Rate: 2},
	}
}

// runSharingArm replays one deterministic churn script — random submits
// from the pool, random deletes, epoch steps, with adaptive retunes live —
// against a fresh durable engine, and returns it with the ids of the queries
// still resident. Everything that varies is derived from (seed, workers), so
// the shared and control arms see op-for-op identical scripts: registry IDs
// are assigned in submission order, hence "delete the i-th live query" names
// the same query in both arms. Retention is a few epochs' worth, so rings
// wrap, and submits land between epochs all through the run, so most members
// of a shared ring attached mid-stream.
func runSharingArm(t *testing.T, seed int64, workers int, disableSharing bool) (*Engine, []string) {
	t.Helper()
	cfg := testConfig()
	cfg.Retention = 48
	cfg.AdaptiveRates = true
	cfg.Fabricator.Workers = workers
	cfg.Fabricator.DisableSharing = disableSharing
	cfg.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: wal.FsyncNever}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	pool := sharingPool()
	rnd := rand.New(rand.NewSource(seed))
	var live []string
	for op := 0; op < 160; op++ {
		switch p := rnd.Float64(); {
		case p < 0.4:
			stored, err := e.Submit(pool[rnd.Intn(len(pool))])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, stored.ID)
		case p < 0.6 && len(live) > 0:
			i := rnd.Intn(len(live))
			if err := e.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A settling run so every surviving query has seen full epochs after
	// the last churn op.
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := e.Fabricator().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return e, live
}

// TestSharedDifferentialRandomized is the differential harness: for several
// seeds and worker counts, the same randomized submit/delete/step script
// runs against a sharing engine and a DisableSharing control — where every
// query keeps a private ring — and everything a resident query can observe
// of its result store must be identical between the two: every page of a
// read from cursor 0 with its cursor and drop count, the counters, and the
// engine's retentionDrops.
// Sharing is an optimization, never a behavior change, including under
// adaptive retunes and parallel epoch execution.
func TestSharedDifferentialRandomized(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, workers := range []int{1, 3} {
			what := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			se, live := runSharingArm(t, seed, workers, false)
			ce, controlLive := runSharingArm(t, seed, workers, true)
			if !se.Fabricator().SharingEnabled() || ce.Fabricator().SharingEnabled() {
				t.Fatal("arm configuration mixed up")
			}
			// The script's collisions must actually have exercised dedup, and
			// on the sharing arm only.
			sst, cst := se.SharedStats(), ce.SharedStats()
			if sst.Attaches == 0 || sst.ResultRings != sst.Subplans || sst.ResultRings >= sst.Queries {
				t.Fatalf("%s: sharing arm did not share result rings (%+v)", what, sst)
			}
			if cst.Attaches != 0 || cst.ResultRings != cst.Queries {
				t.Fatalf("%s: control arm shared (%+v)", what, cst)
			}
			if !slices.Equal(live, controlLive) {
				t.Fatalf("%s: live queries %v shared vs %v control", what, live, controlLive)
			}
			wrapped := false
			for _, id := range live {
				got, err := se.ResultStore(id)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ce.ResultStore(id)
				if err != nil {
					t.Fatal(err)
				}
				wrapped = wrapped || want.Dropped() > 0
				if got.Total() != want.Total() || got.Dropped() != want.Dropped() || got.Len() != want.Len() || got.Retention() != want.Retention() {
					t.Fatalf("%s query %s: total/dropped/len %d/%d/%d shared vs %d/%d/%d control", what, id,
						got.Total(), got.Dropped(), got.Len(), want.Total(), want.Dropped(), want.Len())
				}
				for cursor := uint64(0); ; {
					gp, gn, gd := got.ReadFrom(cursor, 16, nil)
					wp, wn, wd := want.ReadFrom(cursor, 16, nil)
					if gn != wn || gd != wd || !slices.Equal(gp, wp) {
						t.Fatalf("%s query %s cursor %d: page of %d, next %d, dropped %d shared vs %d/%d/%d control",
							what, id, cursor, len(gp), gn, gd, len(wp), wn, wd)
					}
					if len(wp) == 0 {
						break
					}
					cursor = wn
				}
			}
			if !wrapped {
				t.Fatalf("%s: no ring wrapped; the script does not exercise eviction", what)
			}
			if s, c := se.RetentionDrops(), ce.RetentionDrops(); s != c || s == 0 {
				t.Fatalf("%s: retentionDrops %d shared vs %d control", what, s, c)
			}
		}
	}
}

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

// TestSessionSpecDisableSharing drives the reference path through the
// session layer: a session of a manager whose template disables sharing
// fabricates per-query topology.
func TestSessionSpecDisableSharing(t *testing.T) {
	control := testConfig()
	control.Fabricator.DisableSharing = true
	m := newManager(t, ManagerConfig{NewEngine: templateFactory(t, control)})
	sess, err := m.Create(SessionSpec{Name: "ctl"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Engine.Fabricator().SharingEnabled() {
		t.Fatal("DisableSharing template left sharing on")
	}
	const stmt = "ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 6"
	if _, err := sess.Engine.SubmitCRAQL(stmt); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Engine.SubmitCRAQL(stmt); err != nil {
		t.Fatal(err)
	}
	if st := sess.Engine.SharedStats(); st.Subplans != 2 || st.Attaches != 0 {
		t.Fatalf("control session deduplicated: %+v", st)
	}
}
