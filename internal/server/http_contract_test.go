package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

var handleFuncPattern = regexp.MustCompile(`HandleFunc\("([^"]+)"`)

// registeredPatterns reads the mux patterns out of a source file's
// HandleFunc registrations (http.ServeMux does not expose them), so route
// tables in tests cannot drift from what the server registers.
func registeredPatterns(t *testing.T, file string) []string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range handleFuncPattern.FindAllStringSubmatch(string(src), -1) {
		out = append(out, m[1])
	}
	if len(out) == 0 {
		t.Fatalf("no HandleFunc registrations found in %s", file)
	}
	return out
}

// patternRequest builds a request that matches a "METHOD /path/{wildcard}"
// pattern, filling {session} with session and every other wildcard with Q1.
func patternRequest(t *testing.T, base, pattern, session string) *http.Request {
	t.Helper()
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		t.Fatalf("pattern %q has no method", pattern)
	}
	path = strings.ReplaceAll(path, "{session}", session)
	path = strings.ReplaceAll(path, "{id}", "Q1")
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// removedRoutes are the pre-session façade's requests; they must stay 404.
var removedRoutes = []string{
	"GET /status", "POST /queries", "GET /queries", "POST /step",
	"GET /results/Q1", "POST /script", "DELETE /queries/Q1",
}

// TestHTTPContract asserts the surface route by route against a live
// server: the registered pattern set is exactly what docs/API.md documents
// (craqrd's routes plus the gateway's own), the removed single-session
// routes are 404, and no response carries a key the lever removal retired.
func TestHTTPContract(t *testing.T) {
	registered := map[string]bool{}
	for _, p := range registeredPatterns(t, "http.go") {
		if !strings.Contains(p, " /v1/") {
			t.Errorf("http.go registers %q: every route is method-qualified and under /v1", p)
		}
		registered[p] = true
	}
	for _, p := range registeredPatterns(t, "../cluster/gateway.go") {
		if strings.Contains(p, " ") { // the two method-less proxy patterns document nothing
			registered[p] = true
		}
	}
	api, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^### ([A-Z]+ /\S+)`).FindAllStringSubmatch(string(api), -1) {
		documented[m[1]] = true
	}
	for p := range registered {
		if !documented[p] {
			t.Errorf("%q is registered but has no heading in docs/API.md", p)
		}
	}
	for p := range documented {
		if !registered[p] {
			t.Errorf("docs/API.md documents %q, which nothing registers", p)
		}
	}

	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	var session, status, plan map[string]interface{}
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"default"}`, 201, &session)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/default/status", "", 200, &status)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/default/queries/Q1/plan", "", 200, &plan)
	for doc, body := range map[string]map[string]interface{}{"session": session, "status": status, "plan": plan} {
		for _, key := range []string{"fused", "planner", "sharing"} {
			if _, present := body[key]; present {
				t.Errorf("%s JSON still carries %q", doc, key)
			}
		}
	}
	if _, ok := session["adaptive"]; !ok {
		t.Error(`session JSON lost "adaptive"`)
	}

	// topology.program reads the compiled epoch programs: nothing before the
	// first epoch, then one merge phase over the query's four cells; a second
	// submission of the statement rides the resident subplan and recompiles
	// nothing, a new statement does.
	programStatus := func() map[string]interface{} {
		t.Helper()
		var st struct {
			Topology struct {
				Program map[string]interface{} `json:"program"`
			} `json:"topology"`
		}
		doJSON(t, c, "GET", ts.URL+"/v1/sessions/default/status", "", 200, &st)
		return st.Topology.Program
	}
	expectProgram := func(step string, subplans, sources, compiles float64) {
		t.Helper()
		want := map[string]interface{}{"subplans": subplans, "sources": sources, "compiles": compiles}
		if got := programStatus(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: topology.program = %v, want %v", step, got, want)
		}
	}
	expectProgram("before the first epoch", 0, 0, 0)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/step", "", 200, nil)
	expectProgram("first epoch", 1, 4, 1)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/step", "", 200, nil)
	expectProgram("member attached", 1, 4, 1)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/queries", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 1", 201, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/default/step", "", 200, nil)
	expectProgram("second subplan", 2, 5, 2)

	// A session named "default" exists, so a 404 here is the route's, not
	// the session's.
	for _, rt := range removedRoutes {
		method, path, _ := strings.Cut(rt, " ")
		doJSON(t, c, method, ts.URL+path, "", 404, nil)
	}
}

// TestStatusKeysMatchAPIDoc: the top-level keys /status renders are
// exactly those of the JSON example under its heading in docs/API.md, in
// both directions — a key added, or retired, without its documentation
// fails here.
func TestStatusKeysMatchAPIDoc(t *testing.T) {
	api, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(api), "### GET /v1/sessions/{session}/status\n")
	if !ok {
		t.Fatal("docs/API.md has no /status heading")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	_, example, ok := strings.Cut(section, "```json\n")
	if !ok {
		t.Fatal("the /status section of docs/API.md has no JSON example")
	}
	example, _, _ = strings.Cut(example, "```")
	var documented map[string]json.RawMessage
	if err := json.Unmarshal([]byte(example), &documented); err != nil {
		t.Fatalf("the /status example in docs/API.md is not a JSON object: %v", err)
	}

	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"s"}`, 201, nil)
	var status map[string]json.RawMessage
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/s/status", "", 200, &status)
	for key := range status {
		if _, ok := documented[key]; !ok {
			t.Errorf("/status renders %q, which the docs/API.md example lacks", key)
		}
	}
	for key := range documented {
		if _, ok := status[key]; !ok {
			t.Errorf("the docs/API.md /status example documents %q, which /status does not render", key)
		}
	}
}

// TestClosedManagerAnswers503 pins the wire signal of a node on its way
// down: once the manager is closed, every route that touches a session
// answers a retryable 503 + Retry-After — never the 404 that tells a client
// the session is gone, nor the 500 a gateway reads as a failed move.
func TestClosedManagerAnswers503(t *testing.T) {
	m, err := NewManager(ManagerConfig{NewEngine: testFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"s"}`, 201, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/nope/status", "", 404, nil)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// What a closed manager still answers: liveness and the two listings
	// (empty; the gateway reads them to learn nothing is served here).
	sessionless := map[string]bool{"GET /v1/healthz": true, "GET /v1/sessions": true, "GET /v1/node/durable": true}
	for _, pattern := range registeredPatterns(t, "http.go") {
		for _, name := range []string{"s", "nope"} {
			resp, err := c.Do(patternRequest(t, ts.URL, pattern, name))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if sessionless[pattern] {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s on a closed manager = %d, want 200", pattern, resp.StatusCode)
				}
				continue
			}
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s (session %q) on a closed manager = %d (Retry-After %q), want 503 with Retry-After",
					pattern, name, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
	}
	if _, err := m.Get("s"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Get on a closed manager = %v, want ErrManagerClosed", err)
	}
}

// TestWriteErrTable walks the one error→status table. The ingest rows matter
// most: misclassifying a durability failure as 400 would make producers
// discard batches that were never durably acked.
func TestWriteErrTable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		fallback   int
		want       int
		retryAfter string
	}{
		{"no session", fmt.Errorf("%w: %q", ErrNoSession, "x"), 500, 404, ""},
		{"session exists", fmt.Errorf("%w: %q", ErrSessionExists, "x"), 500, 409, ""},
		{"session limit", ErrTooManySessions, 500, 429, ""},
		{"invalid spec", fmt.Errorf("%w: weight must be non-negative", ErrInvalidSpec), 500, 400, ""},
		{"query rate out of range", fmt.Errorf("planner: %w", query.ErrRate), 500, 400, ""},
		{"manager closed", ErrManagerClosed, 500, 503, "1"},
		{"gateway without a way to the session", Unavailable("no healthy nodes"), 500, 503, "1"},
		{"recover on a closed manager", fmt.Errorf("server: recover session %q: %w", "x", ErrManagerClosed), 500, 503, "1"},
		{"queue closed", ingest.ErrClosed, 400, 503, "1"},
		{"wal closed mid-shutdown", &DurabilityError{Err: wal.ErrClosed}, 400, 503, "1"},
		{"rate limited", &RateLimitError{Reason: "tuple rate", RetryAfter: 2500 * time.Millisecond}, 500, 429, "3"},
		{"over quota", &RateLimitError{Reason: "queue bytes"}, 400, 429, "1"},
		{"fsync failure", &DurabilityError{Err: errors.New("fsync: no space left on device")}, 400, 500, ""},
		{"simulated session", ErrNoIngest, 400, 409, ""},
		{"frame too large", fmt.Errorf("reading ingest body: %w", wire.ErrFrameTooLarge), 400, 413, ""},
		{"body too large", wire.ErrBodyTooLarge, 400, 413, ""},
		{"unknown encoding", wire.ErrUnsupportedEncoding, 400, 415, ""},
		{"producer batch", errors.New("observation missing attr"), 400, 400, ""},
		{"unjournalable batch", fmt.Errorf("server: batch is not journalable: %w", wal.ErrRecordTooLarge), 400, 400, ""},
		{"engine fault", errors.New("step: sink failed"), 500, 500, ""},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, tc.err, tc.fallback)
		if rec.Code != tc.want || rec.Header().Get("Retry-After") != tc.retryAfter {
			t.Errorf("%s: %d (Retry-After %q), want %d (%q)", tc.name, rec.Code, rec.Header().Get("Retry-After"), tc.want, tc.retryAfter)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: body %q is not the error envelope", tc.name, rec.Body.String())
		}
	}
}

// TestSessionSpecValidate: Manager.Create gives a Go caller the refusal an
// HTTP caller gets, instead of silently ignoring a nonsensical value.
func TestSessionSpecValidate(t *testing.T) {
	m := newManager(t, ManagerConfig{})
	for _, tc := range []struct {
		field string
		spec  SessionSpec
	}{
		{"source", SessionSpec{Source: "telepathy"}},
		{"latePolicy", SessionSpec{LatePolicy: "maybe"}},
		{"fsyncPolicy", SessionSpec{FsyncPolicy: "sometimes"}},
		{"ingestBuffer", SessionSpec{IngestBuffer: -1}},
		{"tolerance", SessionSpec{IngestTolerance: -0.5}},
		{"snapshotEvery", SessionSpec{SnapshotEvery: -1}},
		{"weight", SessionSpec{Weight: -1}},
		{"limits", SessionSpec{Limits: &TenantLimits{RateTuplesPerSec: -1}}},
	} {
		tc.spec.Name = "bad"
		if _, err := m.Create(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad %s: Create = %v, want ErrInvalidSpec", tc.field, err)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("refused specs left %d sessions", m.Len())
	}
	if _, err := m.Create(SessionSpec{Name: "ok", Source: "mixed", LatePolicy: "next", Weight: 2}); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
}

// decodeStrict decodes one JSON body into out, refusing any field the client
// type does not declare and anything after the value.
func decodeStrict(t *testing.T, body []byte, out interface{}) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	if dec.More() {
		t.Fatalf("%s: data after the value", body)
	}
}

// TestHandRenderedBodiesDecodeAsClientTypes pins the bodies the hot paths
// render by hand — ingest acks, result pages, streamed tuples — to the client
// types that declare them: each decodes, with unknown fields refused, into
// client.Ack, client.ResultPage or client.Tuple, to the values rendered.
func TestHandRenderedBodiesDecodeAsClientTypes(t *testing.T) {
	wm := 2.5
	for _, tc := range []struct {
		name   string
		ack    ingest.Ack
		errMsg string
		want   client.Ack
	}{
		{"unary ack", ingest.Ack{Accepted: 3, Dropped: 1, Late: 2, LateDropped: 1, Rejected: 4, Duplicates: 5, Watermark: wm, Pending: 7},
			"", client.Ack{Accepted: 3, Dropped: 1, Late: 2, LateDropped: 1, Rejected: 4, Duplicates: 5, Watermark: &wm, Pending: 7}},
		{"ndjson ack line", ingest.Ack{Accepted: 1, Watermark: math.Inf(-1)}, "", client.Ack{Accepted: 1}},
		{"error line", errAck, `invalid ingest batch: "x"`, client.Ack{Error: `invalid ingest batch: "x"`}},
	} {
		var got client.Ack
		decodeStrict(t, AppendIngestAck(nil, tc.ack, tc.errMsg), &got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, tc.want)
		}
	}

	tuples := []stream.Tuple{
		{ID: 1, Attr: "rain", T: 0.30000000000000004, X: 1e-7, Y: -1e21, Value: 21.5, Sensor: 4},
		{ID: 2, Attr: `a"<b>`, T: 1, X: 2, Y: 3, Value: -0.5, Sensor: -1},
		{ID: 3, Attr: "rain", T: 1.5, X: 0, Y: 7.25, Value: 0, Sensor: 0},
	}
	store := stream.NewResultStore(2)
	if err := store.Process(stream.Batch{Tuples: tuples}); err != nil {
		t.Fatal(err)
	}
	read, next, dropped := store.ReadFrom(0, 0, nil)
	body, err := appendResultPage(nil, read, next, dropped, store)
	if err != nil {
		t.Fatal(err)
	}
	var page client.ResultPage
	decodeStrict(t, body, &page)
	// A page tuple is {id,t,x,y,value}: attr and sensor are the query's.
	wantPage := client.ResultPage{NextCursor: 3, Dropped: 1, Retained: 2, Total: 3, Retention: 2}
	for _, tp := range tuples[1:] {
		wantPage.Tuples = append(wantPage.Tuples, client.Tuple{ID: tp.ID, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value})
	}
	if !reflect.DeepEqual(page, wantPage) {
		t.Errorf("result page decoded %+v, want %+v", page, wantPage)
	}

	// The push route's tuple records, ndjson and SSE data: alike.
	wantTuple := func(tp stream.Tuple) client.Tuple {
		return client.Tuple{ID: tp.ID, Attr: tp.Attr, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value, Sensor: tp.Sensor}
	}
	var ndjson bytes.Buffer
	if _, err := writeStreamChunk(&ndjson, false, nil, tuples, 3, 0); err != nil {
		t.Fatal(err)
	}
	var sse bytes.Buffer
	if _, err := writeStreamChunk(&sse, true, nil, tuples, 3, 0); err != nil {
		t.Fatal(err)
	}
	var sseData []string
	for _, line := range strings.Split(sse.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			sseData = append(sseData, data)
		}
	}
	for framing, records := range map[string][]string{
		"ndjson": strings.Split(strings.TrimSuffix(ndjson.String(), "\n"), "\n"),
		"sse":    sseData,
	} {
		if len(records) != len(tuples) {
			t.Fatalf("%s: %d records for %d tuples", framing, len(records), len(tuples))
		}
		for i, rec := range records {
			var got client.Tuple
			decodeStrict(t, []byte(rec), &got)
			if want := wantTuple(tuples[i]); got != want {
				t.Errorf("%s record %d decoded %+v, want %+v", framing, i, got, want)
			}
		}
	}
}
