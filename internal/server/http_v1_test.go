package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/stream"
	"repro/internal/wal"
)

// newManagerTestServer spins up a manager-backed HTTP server.
func newManagerTestServer(t *testing.T) (*httptest.Server, *HTTPServer) {
	t.Helper()
	m := newManager(t, ManagerConfig{})
	s, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

// doJSON issues a request and decodes the JSON response into out.
func doJSON(t *testing.T, client *http.Client, method, url, body string, wantStatus int, out interface{}) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d", method, url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHTTPSessionLifecycle(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	// Health before any session.
	var hz client.Health
	doJSON(t, c, "GET", ts.URL+"/v1/healthz", "", 200, &hz)
	if hz.Status != "ok" || hz.Sessions != 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Create, duplicate-create, list, info, destroy.
	var sj client.Session
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"a","seed":7,"retention":128}`, 201, &sj)
	if sj.Name != "a" || sj.Seed != 7 || sj.Retention != 128 || sj.Running {
		t.Fatalf("created = %+v", sj)
	}
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"a"}`, http.StatusConflict, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"b","tick":"bogus"}`, 400, nil)
	var list []client.Session
	doJSON(t, c, "GET", ts.URL+"/v1/sessions", "", 200, &list)
	if len(list) != 1 {
		t.Fatalf("list = %+v", list)
	}
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/a", "", 200, &sj)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/zzz", "", 404, nil)
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/a", "", 200, nil)
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/a", "", 404, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/healthz", "", 200, &hz)
	if hz.Sessions != 0 {
		t.Fatalf("sessions after destroy = %d", hz.Sessions)
	}
}

// TestHTTPPaginationEndToEnd walks a query's whole stream through the HTTP
// cursor API and checks it matches a direct engine read.
func TestHTTPPaginationEndToEnd(t *testing.T) {
	ts, s := newManagerTestServer(t)
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"w","seed":3}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/w/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/w/step?n=10", "", 200, nil)

	sess, err := s.manager.Get("w")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Engine.Results(qj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no tuples fabricated")
	}

	var got []uint64
	var cursor uint64
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("pagination did not terminate")
		}
		var pj client.ResultPage
		url := fmt.Sprintf("%s/v1/sessions/w/results/%s?cursor=%d&limit=7", ts.URL, qj.ID, cursor)
		doJSON(t, c, "GET", url, "", 200, &pj)
		if pj.Dropped != 0 {
			t.Fatalf("unexpected drops: %d", pj.Dropped)
		}
		if pj.Total != uint64(len(want)) {
			t.Fatalf("total = %d, want %d", pj.Total, len(want))
		}
		if len(pj.Tuples) == 0 {
			break
		}
		for _, tp := range pj.Tuples {
			got = append(got, tp.ID)
		}
		cursor = pj.NextCursor
	}
	if len(got) != len(want) {
		t.Fatalf("paginated %d tuples, want %d", len(got), len(want))
	}
	for i, id := range got {
		if id != want[i].ID {
			t.Fatalf("tuple %d: id %d, want %d", i, id, want[i].ID)
		}
	}

	// Bad cursors and limits are rejected.
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/w/results/"+qj.ID+"?cursor=x", "", 400, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/w/results/"+qj.ID+"?limit=-1", "", 400, nil)
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/w/results/QX", "", 404, nil)
}

// TestResultPageMatchesEncodingJSON pins the paged route's hand-rendered body
// to the bytes encoding/json made of the map and {id,t,x,y,value} tuples the
// route used to build: sorted keys, every number as encoding/json spells it,
// the trailing newline.
func TestResultPageMatchesEncodingJSON(t *testing.T) {
	num := func(f float64) []byte {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fill := func(store *stream.ResultStore, n int) {
		tuples := make([]stream.Tuple, n)
		for i := range tuples {
			k := float64(i)
			tuples[i] = stream.Tuple{ID: uint64(i + 1), Attr: "rain", T: k / 1000, X: k / 7, Y: -k * 0.125, Value: k / 100, Sensor: i}
		}
		// Both renderer paths and the exponent forms, whatever n is.
		tuples[0].T, tuples[0].X, tuples[0].Y, tuples[0].Value = 0.30000000000000004, 1e-7, -1e21, 21.5
		if err := store.Process(stream.Batch{Tuples: tuples}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name             string
		retention, wrote int
		cursor           uint64
		limit            int
	}{
		{"empty store", 8, 0, 0, 0},
		{"page with drops", 4, 10, 0, 3},
		{"first page", 16, 10, 0, 4},
		{"cursor past the end", 16, 10, 99, 5},
		{"limit=0 over a full ring", 1 << 16, 1<<16 + 5, 0, 0},
	}
	for _, c := range cases {
		store := stream.NewResultStore(c.retention)
		if c.wrote > 0 {
			fill(store, c.wrote)
		}
		tuples, next, dropped := store.ReadFrom(c.cursor, c.limit, nil)
		old := make([]json.RawMessage, len(tuples))
		for i, tp := range tuples {
			old[i] = fmt.Appendf(nil, `{"id":%d,"t":%s,"x":%s,"y":%s,"value":%s}`, tp.ID, num(tp.T), num(tp.X), num(tp.Y), num(tp.Value))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]interface{}{
			"tuples": old, "nextCursor": next, "dropped": dropped,
			"retained": store.Len(), "total": store.Total(), "retention": store.Retention(),
		}); err != nil {
			t.Fatal(err)
		}
		got, err := appendResultPage(nil, tuples, next, dropped, store)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: body differs from encoding/json:\n got %.300s\nwant %.300s", c.name, got, want.Bytes())
		}
	}
	store := stream.NewResultStore(4)
	if err := store.Process(stream.Batch{Tuples: []stream.Tuple{{ID: 1, Value: math.NaN()}}}); err != nil {
		t.Fatal(err)
	}
	tuples, next, dropped := store.ReadFrom(0, 0, nil)
	if _, err := appendResultPage(nil, tuples, next, dropped, store); err == nil {
		t.Fatal("a NaN field rendered; encoding/json refuses it")
	}
}

// TestHTTPStreamDeliversWithoutStep is the acceptance check that streaming
// delivers tuples for a live query with no /step polling: the session ticks
// on its own clock and the client just reads.
func TestHTTPStreamDeliversWithoutStep(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"live","seed":5,"tick":"2ms"}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/live/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sessions/live/results/"+qj.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	seen := 0
	for scanner.Scan() && seen < 5 {
		var tp client.Tuple
		if err := json.Unmarshal(scanner.Bytes(), &tp); err != nil {
			t.Fatalf("bad ndjson line %q: %v", scanner.Text(), err)
		}
		if tp.Attr != "rain" {
			t.Fatalf("streamed tuple attr = %q", tp.Attr)
		}
		seen++
	}
	if seen < 5 {
		t.Fatalf("streamed only %d tuples: %v", seen, scanner.Err())
	}
}

func TestHTTPStreamSSE(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"sse","seed":5,"tick":"2ms"}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/sse/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sessions/sse/results/"+qj.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	var ids, datas int
	for scanner.Scan() && datas < 3 {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ids++
		case strings.HasPrefix(line, "data: "):
			var tp client.Tuple
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &tp); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			datas++
		}
	}
	if datas < 3 || ids < 3 {
		t.Fatalf("SSE frames: %d data, %d id lines (%v)", datas, ids, scanner.Err())
	}
}

// TestHTTPStreamEndsOnSessionDestroy: an open stream terminates cleanly
// (EOF) when its session is destroyed, rather than hanging forever.
func TestHTTPStreamEndsOnSessionDestroy(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"gone","seed":4,"tick":"2ms"}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/gone/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)

	resp, err := c.Get(ts.URL + "/v1/sessions/gone/results/" + qj.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read at least one line so the stream is established, then destroy.
	scanner := bufio.NewScanner(resp.Body)
	if !scanner.Scan() {
		t.Fatalf("stream produced nothing: %v", scanner.Err())
	}
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/gone", "", 200, nil)
	ended := make(chan struct{})
	go func() {
		for scanner.Scan() {
		}
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after session destroy")
	}
}

func TestHTTPSessionStatus(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"st","seed":2,"retention":32}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/st/queries", "ACQUIRE rain FROM RECT(0,0,8,8) RATE 5", 201, &qj)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/st/step?n=20", "", 200, nil)

	var st struct {
		Session        string  `json:"session"`
		Running        bool    `json:"running"`
		Epochs         int     `json:"epochs"`
		Now            float64 `json:"now"`
		Queries        int     `json:"queries"`
		RetentionDrops uint64  `json:"retentionDrops"`
	}
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/st/status", "", 200, &st)
	if st.Session != "st" || st.Epochs != 20 || st.Now != 20 || st.Queries != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.RetentionDrops == 0 {
		t.Fatal("tight retention produced no drops in status")
	}
}

func TestHTTPScriptAndQueryRoutes(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"q"}`, 201, nil)

	var out []client.Query
	script := "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3;\nACQUIRE temp FROM RECT(4,0,8,4) RATE 2;"
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/q/script", script, 201, &out)
	if len(out) != 2 {
		t.Fatalf("script queries = %+v", out)
	}
	var listed []client.Query
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/q/queries", "", 200, &listed)
	if len(listed) != 2 {
		t.Fatalf("listed = %+v", listed)
	}
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/q/queries/"+out[0].ID, "", 200, nil)
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/q/queries/"+out[0].ID, "", 404, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/q/script", "garbage", 400, nil)
	// Session routes on a missing session 404.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/nope/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 404, nil)
}

// TestHTTPQueryRateBound: a rate past query.MaxRate is refused with 400 by
// submit and by EXPLAIN alike — not accepted and then unpriceable, its plan
// and EXPLAIN answering 500 on an infinite estimate — while a large rate
// inside the bound is submitted, priced and explained.
func TestHTTPQueryRateBound(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	base := ts.URL + "/v1/sessions/r"
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"r"}`, 201, nil)
	for _, rate := range []string{"1e308", "1.6e308", "1e13"} {
		stmt := "ACQUIRE rain FROM RECT(0,0,4,4) RATE " + rate
		doJSON(t, c, "POST", base+"/queries", stmt, 400, nil)
		doJSON(t, c, "POST", base+"/queries", "EXPLAIN "+stmt, 400, nil)
		doJSON(t, c, "POST", base+"/script", stmt+";", 400, nil)
	}
	var listed []client.Query
	doJSON(t, c, "GET", base+"/queries", "", 200, &listed)
	if len(listed) != 0 {
		t.Fatalf("refused statements registered %+v", listed)
	}
	var q client.Query
	doJSON(t, c, "POST", base+"/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 1e6", 201, &q)
	var plan struct {
		Plan explainJSON `json:"plan"`
	}
	doJSON(t, c, "GET", base+"/queries/"+q.ID+"/plan", "", 200, &plan)
	var ex explainJSON
	doJSON(t, c, "POST", base+"/queries", "EXPLAIN ACQUIRE rain FROM RECT(0,0,4,4) RATE 1e6", 200, &ex)
	if plan.Plan.Explain == "" || plan.Plan.Explain != ex.Explain {
		t.Fatalf("plan %q, EXPLAIN %q", plan.Plan.Explain, ex.Explain)
	}
	doJSON(t, c, "POST", base+"/step?n=1", "", 200, nil)
}

// syncFaultSegment is a WAL segment whose fsync fails once armed.
type syncFaultSegment struct {
	wal.File
	armed *atomic.Bool
}

func (s syncFaultSegment) Sync() error {
	if s.armed.Load() {
		return errors.New("injected EIO")
	}
	return s.File.Sync()
}

// TestHTTPQueryDeleteDurabilityFault: DELETE of a query maps its error
// through the error table — a delete the WAL could not make durable is a
// 500, and only an unknown id is a 404.
func TestHTTPQueryDeleteDurabilityFault(t *testing.T) {
	var armed atomic.Bool
	template := testConfig()
	template.Durability = DurabilityConfig{Dir: t.TempDir(), Fsync: wal.FsyncAlways,
		FS: segmentFS{FS: wal.OS, wrap: func(f wal.File) wal.File { return syncFaultSegment{File: f, armed: &armed} }}}
	hs, err := NewManagerHTTPServer(newManager(t, ManagerConfig{NewEngine: templateFactory(t, template)}), "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"d"}`, 201, nil)
	var qj client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/d/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/d/queries/nope", "", 404, nil)

	armed.Store(true)
	var fault struct {
		Error string `json:"error"`
	}
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/d/queries/"+qj.ID, "", 500, &fault)
	if !strings.Contains(fault.Error, "injected EIO") {
		t.Fatalf("fault body = %q, want the fsync error", fault.Error)
	}
	doJSON(t, c, "DELETE", ts.URL+"/v1/sessions/d/queries/nope", "", 404, nil)
}

// TestHTTPStepAbandonedByClient: a step request parked behind another
// session's epoch slot gives up its claim when its client goes away, so no
// epoch runs for nobody once the slot frees.
func TestHTTPStepAbandonedByClient(t *testing.T) {
	m := newManager(t, ManagerConfig{EpochSlots: 1})
	hs, err := NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hs)
	defer ts.Close()
	blocker, err := m.Create(SessionSpec{Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Create(SessionSpec{Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	release, err := blocker.Engine.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	load := func() (waiters, inUse int) {
		m.sched.mu.Lock()
		defer m.sched.mu.Unlock()
		return len(m.sched.waiters), m.sched.inUse
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sessions/s/step", nil)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, "the step to wait for the held slot", func() bool {
		waiters, _ := load()
		return waiters == 1
	})
	time.Sleep(50 * time.Millisecond)
	cancel() // the client gives up
	if status := <-answered; status != 0 {
		t.Fatalf("step answered %d while the only epoch slot was held", status)
	}
	// Give the server up to a second to notice the client left.
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if waiters, _ := load(); waiters == 0 {
			break
		}
	}
	release()
	waitFor(t, 5*time.Second, "the epoch slot to go idle", func() bool {
		waiters, inUse := load()
		return waiters == 0 && inUse == 0
	})
	if got := sess.Engine.Epochs(); got != 0 {
		t.Fatalf("the abandoned step ran %d epochs", got)
	}
}

// TestWriteJSONLogsEncodeFailure covers the satellite requirement that
// writeJSON surfaces encode errors instead of discarding them.
func TestWriteJSONLogsEncodeFailure(t *testing.T) {
	_, s := newManagerTestServer(t)
	var logged []string
	s.logf = func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, 200, map[string]interface{}{"bad": make(chan int)})
	if len(logged) != 1 || !strings.Contains(logged[0], "encoding") {
		t.Fatalf("encode failure not logged: %v", logged)
	}
	// Healthy encodes stay silent.
	logged = nil
	s.writeJSON(httptest.NewRecorder(), 200, map[string]string{"ok": "yes"})
	if len(logged) != 0 {
		t.Fatalf("spurious log: %v", logged)
	}
}

// openResultStream opens a query's ndjson result stream from cursor 0.
func openResultStream(t *testing.T, ctx context.Context, c *http.Client, base, id string) *bufio.Scanner {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/results/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("stream %s = %d", id, resp.StatusCode)
	}
	return bufio.NewScanner(resp.Body)
}

// readLines reads exactly n lines; the stream's request context bounds the
// wait.
func readLines(t *testing.T, sc *bufio.Scanner, n int) []string {
	t.Helper()
	lines := make([]string, 0, n)
	for len(lines) < n && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < n {
		t.Fatalf("stream ended after %d of %d lines: %v", len(lines), n, sc.Err())
	}
	return lines
}

// TestHTTPSharedStreamsIndependent: queries sharing one result ring are,
// over HTTP, as separate as they ever were. Two submitted together stream
// byte-identical ndjson; one submitted later streams from its own cursor 0,
// the first tuple fabricated after it arrived; every counter of the results
// route is per query; and DELETE of one ends that stream only.
func TestHTTPSharedStreamsIndependent(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	base := ts.URL + "/v1/sessions/sh"
	const stmt = "ACQUIRE rain FROM RECT(0,0,8,8) RATE 4"
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"sh","seed":3}`, 201, nil)
	submit := func() string {
		var qj client.Query
		doJSON(t, c, "POST", base+"/queries", stmt, 201, &qj)
		return qj.ID
	}
	type page struct {
		Total      int `json:"total"`
		Retained   int `json:"retained"`
		NextCursor int `json:"nextCursor"`
		Dropped    int `json:"dropped"`
	}
	results := func(id string) page {
		var p page
		doJSON(t, c, "GET", base+"/results/"+id, "", 200, &p)
		return p
	}
	q1, q2 := submit(), submit()
	doJSON(t, c, "POST", base+"/step?n=4", "", 200, nil)
	q3 := submit()
	doJSON(t, c, "POST", base+"/step?n=4", "", 200, nil)

	var st struct {
		Queries     int `json:"queries"`
		Subplans    int `json:"subplans"`
		ResultRings int `json:"resultRings"`
	}
	doJSON(t, c, "GET", base+"/status", "", 200, &st)
	if st.Queries != 3 || st.Subplans != 1 || st.ResultRings != 1 {
		t.Fatalf("status = %+v, want 3 queries on 1 subplan and 1 ring", st)
	}
	p1, p2, p3 := results(q1), results(q2), results(q3)
	if p1.Total == 0 || p1 != p2 || p1.NextCursor != p1.Total || p1.Retained != p1.Total {
		t.Fatalf("results of the two early queries: %+v and %+v", p1, p2)
	}
	if p3.Total == 0 || p3.Total >= p1.Total || p3.NextCursor != p3.Total || p3.Retained != p3.Total || p3.Dropped != 0 {
		t.Fatalf("late query's counters are not its own: %+v (early query %+v)", p3, p1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	s1, s2, s3 := openResultStream(t, ctx, c, base, q1), openResultStream(t, ctx, c, base, q2), openResultStream(t, ctx, c, base, q3)
	l1, l2, l3 := readLines(t, s1, p1.Total), readLines(t, s2, p2.Total), readLines(t, s3, p3.Total)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("line %d differs between identical queries:\n%s\n%s", i, l1[i], l2[i])
		}
	}
	for i := range l3 {
		if want := l1[p1.Total-p3.Total+i]; l3[i] != want {
			t.Fatalf("late query's line %d = %s, want the early stream's line %d = %s", i, l3[i], p1.Total-p3.Total+i, want)
		}
	}

	// Deleting Q2 ends Q2's stream and nothing else.
	doJSON(t, c, "DELETE", base+"/queries/"+q2, "", 200, nil)
	if s2.Scan() {
		t.Fatalf("deleted query's stream went on: %s", s2.Text())
	}
	doJSON(t, c, "POST", base+"/step?n=2", "", 200, nil)
	more := results(q1).Total - p1.Total
	if more == 0 {
		t.Fatal("no tuples fabricated after the delete")
	}
	m1, m3 := readLines(t, s1, more), readLines(t, s3, more)
	for i := range m1 {
		if m1[i] != m3[i] {
			t.Fatalf("survivors diverge after the delete at line %d", i)
		}
	}
	doJSON(t, c, "GET", base+"/results/"+q2, "", 404, nil)
}

// TestStatusRetentionDropsMonotonic: /status retentionDrops counts evictions
// over the session's life, so deleting a query that has some does not take
// them back.
func TestStatusRetentionDropsMonotonic(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	base := ts.URL + "/v1/sessions/mono"
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"mono","seed":2,"retention":32}`, 201, nil)
	ids := make([]string, 2)
	for i := range ids {
		var qj client.Query
		doJSON(t, c, "POST", base+"/queries", "ACQUIRE rain FROM RECT(0,0,8,8) RATE 5", 201, &qj)
		ids[i] = qj.ID
	}
	doJSON(t, c, "POST", base+"/step?n=20", "", 200, nil)
	drops := func() uint64 {
		var st struct {
			RetentionDrops uint64 `json:"retentionDrops"`
		}
		doJSON(t, c, "GET", base+"/status", "", 200, &st)
		return st.RetentionDrops
	}
	var p client.ResultPage
	doJSON(t, c, "GET", base+"/results/"+ids[0], "", 200, &p)
	before := drops()
	if p.Dropped == 0 || before != 2*p.Dropped {
		t.Fatalf("retentionDrops = %d with %d evicted per query; want both queries counted", before, p.Dropped)
	}
	doJSON(t, c, "DELETE", base+"/queries/"+ids[0], "", 200, nil)
	if after := drops(); after != before {
		t.Fatalf("retentionDrops went %d -> %d across a delete", before, after)
	}
	doJSON(t, c, "POST", base+"/step?n=5", "", 200, nil)
	if later := drops(); later <= before {
		t.Fatalf("retentionDrops stuck at %d after more evictions (was %d)", later, before)
	}
}

// TestWriteStreamChunkSSEFraming holds the hand-rendered SSE events to the
// encoding/json rendering they replaced, drop notice and event ids included.
func TestWriteStreamChunkSSEFraming(t *testing.T) {
	out := []stream.Tuple{
		{ID: 7, Attr: "rain", T: 1.25, X: 1e-7, Y: 1e21, Value: -0.5, Sensor: 3},
		{ID: 8, Attr: `a"<b>`, T: 2, X: 0.1, Y: 123456.789, Value: 0, Sensor: -1},
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "event: drop\ndata: {\"dropped\":%d}\n\n", 5)
	for i, tp := range out {
		data, err := json.Marshal(client.Tuple{ID: tp.ID, Attr: tp.Attr, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value, Sensor: tp.Sensor})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "id: %d\ndata: %s\n\n", 40+i+1, data)
	}
	var got bytes.Buffer
	frame, err := writeStreamChunk(&got, true, nil, out, 42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("SSE chunk:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// The frame buffer is reused, and an empty read writes nothing.
	got.Reset()
	if _, err := writeStreamChunk(&got, true, frame, nil, 42, 0); err != nil || got.Len() != 0 {
		t.Fatalf("empty chunk wrote %q, %v", got.String(), err)
	}
}

// TestWriteStreamChunkNDJSONFraming holds the hand-rendered ndjson lines to
// encoding/json, drop notice first, and a chunk cut short by a tuple that
// cannot be rendered to the lines before it.
func TestWriteStreamChunkNDJSONFraming(t *testing.T) {
	out := []stream.Tuple{
		{ID: 7, Attr: "rain", T: 1.25, X: 1e-7, Y: 1e21, Value: -0.5, Sensor: 3},
		{ID: 8, Attr: `a"<b>`, T: 2, X: 0.1, Y: 123456.789, Value: 0, Sensor: -1},
		{ID: 9, Attr: "rain", T: 3, X: math.NaN(), Y: 0, Value: 1, Sensor: 0},
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "{\"dropped\":%d}\n", 5)
	for _, tp := range out[:2] {
		data, err := json.Marshal(client.Tuple{ID: tp.ID, Attr: tp.Attr, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value, Sensor: tp.Sensor})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%s\n", data)
	}
	var got bytes.Buffer
	frame, err := writeStreamChunk(&got, false, nil, out[:2], 42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("ndjson chunk:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// An unrenderable tuple ends the chunk after what was rendered before it.
	got.Reset()
	if _, err := writeStreamChunk(&got, false, frame, out, 43, 5); err == nil || got.String() != want.String() {
		t.Fatalf("chunk cut short wrote %q, %v; want %q and an error", got.String(), err, want.String())
	}
	got.Reset()
	if _, err := writeStreamChunk(&got, false, frame, nil, 42, 0); err != nil || got.Len() != 0 {
		t.Fatalf("empty chunk wrote %q, %v", got.String(), err)
	}
}
