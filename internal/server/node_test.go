package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/wal"
)

// newDurableNodeManager builds a manager the way a cluster node does: a
// durability root shared with its peers, external source, no auto-recovery.
func newDurableNodeManager(t *testing.T, root string) *Manager {
	t.Helper()
	template := testConfig()
	template.Source = SourceConfig{Mode: SourceExternal}
	template.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
	fields := testFields(t)
	m, err := NewManager(ManagerConfig{
		NewEngine:     NewEngineFactory(template, func() (map[string]sensors.Field, error) { return fields, nil }),
		DurabilityDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSessionHandoffAcrossManagers is the handoff primitive end to end:
// node A hosts a session, releases it (durable state kept), node B sharing
// the volume recovers it by WAL replay, and the recovered stream plus a
// post-handoff epoch are byte-identical to what an uninterrupted run on A
// would have produced.
func TestSessionHandoffAcrossManagers(t *testing.T) {
	root := t.TempDir()
	script := crashScript()

	// Reference: the same workload on one manager, never handed off.
	ref := newDurableNodeManager(t, t.TempDir())
	defer ref.Close()
	refSess, err := ref.Create(SessionSpec{Name: "h"})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script {
		applyOp(t, refSess.Engine, op)
	}
	applyOp(t, refSess.Engine, durOp{kind: "step"})
	want := captureState(t, refSess.Engine)

	// Handoff run: node A executes a prefix, releases, node B recovers and
	// finishes the script.
	nodeA := newDurableNodeManager(t, root)
	defer nodeA.Close()
	sessA, err := nodeA.Create(SessionSpec{Name: "h"})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(script) - 3
	for _, op := range script[:cut] {
		applyOp(t, sessA.Engine, op)
	}
	if err := nodeA.Release("h"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := nodeA.Get("h"); err == nil {
		t.Fatal("released session still resolvable on node A")
	}

	nodeB := newDurableNodeManager(t, root)
	defer nodeB.Close()
	durable, err := nodeB.DurableSessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(durable, []string{"h"}) {
		t.Fatalf("DurableSessions = %v, want [h]", durable)
	}
	recovered, err := nodeB.RecoverSession("h")
	if err != nil {
		t.Fatalf("RecoverSession: %v", err)
	}
	if !recovered {
		t.Fatal("RecoverSession reported not recovered")
	}
	sessB, err := nodeB.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range script[cut:] {
		applyOp(t, sessB.Engine, op)
	}
	applyOp(t, sessB.Engine, durOp{kind: "step"})
	got := captureState(t, sessB.Engine)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handed-off session diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Idempotence: recovering a live session is a no-op, not an error.
	again, err := nodeB.RecoverSession("h")
	if err != nil || again {
		t.Fatalf("second RecoverSession = (%v, %v), want (false, nil)", again, err)
	}
}

func TestRecoverSessionErrors(t *testing.T) {
	m := newDurableNodeManager(t, t.TempDir())
	defer m.Close()
	if _, err := m.RecoverSession("ghost"); err == nil {
		t.Fatal("recovering a session with no durable state must fail")
	}
	if err := m.Release("ghost"); err == nil {
		t.Fatal("releasing an unknown session must fail")
	}

	// A manager without a durability root cannot recover anything.
	plain := newManager(t, ManagerConfig{NewEngine: func(SessionSpec) (*Engine, error) {
		return New(testConfig(), testFields(t))
	}})
	if _, err := plain.RecoverSession("x"); err == nil {
		t.Fatal("RecoverSession without a durability root must fail")
	}
	if names, err := plain.DurableSessions(); err != nil || names != nil {
		t.Fatalf("DurableSessions without root = (%v, %v), want (nil, nil)", names, err)
	}
}

// TestNodeHTTPRoutes drives the handoff control plane over HTTP: durable
// listing, recover, release, and the ownership assert.
func TestNodeHTTPRoutes(t *testing.T) {
	root := t.TempDir()
	m := newDurableNodeManager(t, root)
	defer m.Close()
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	hs.SetNodeName("n1")
	ts := httptest.NewServer(hs)
	defer ts.Close()

	getJSON := func(method, path string, want int) map[string]interface{} {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Healthz advertises the node name.
	if h := getJSON("GET", "/v1/healthz", 200); h["node"] != "n1" {
		t.Fatalf("healthz node = %v, want n1", h["node"])
	}

	// Create a durable session, release it over HTTP, recover it over HTTP.
	sess, err := m.Create(SessionSpec{Name: "web"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Engine.Submit(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 3}); err != nil {
		t.Fatal(err)
	}
	d := getJSON("GET", "/v1/node/durable", 200)
	if sessions, _ := d["sessions"].([]interface{}); len(sessions) != 1 || sessions[0] != "web" {
		t.Fatalf("durable sessions = %v, want [web]", d["sessions"])
	}
	if rel := getJSON("POST", "/v1/node/sessions/web/release", 200); rel["released"] != true {
		t.Fatalf("release = %v", rel)
	}
	getJSON("POST", "/v1/node/sessions/web/release", 404) // already released
	rec := getJSON("POST", "/v1/node/sessions/web/recover", 200)
	if rec["recovered"] != true {
		t.Fatalf("recover = %v", rec)
	}
	if rec2 := getJSON("POST", "/v1/node/sessions/web/recover", 200); rec2["recovered"] != false {
		t.Fatalf("second recover = %v", rec2)
	}
	if sess, err := m.Get("web"); err != nil || len(sess.Engine.Queries()) != 1 {
		t.Fatalf("recovered session state: err=%v", err)
	}
	getJSON("POST", "/v1/node/sessions/ghost/recover", 404)

	// Ownership assert: a request stamped for another node is 421; the
	// right stamp (or none) passes.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/web", nil)
	req.Header.Set(HeaderExpectNode, "n2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := jsonDecodeTo(resp, body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted request = %d (%s), want 421", resp.StatusCode, body)
	}
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/web", nil)
	req2.Header.Set(HeaderExpectNode, "n1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("correctly routed request = %d, want 200", resp2.StatusCode)
	}
}

// jsonDecodeTo drains a response body into sb for error messages.
func jsonDecodeTo(resp *http.Response, sb *strings.Builder) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			return n, nil
		}
	}
}
