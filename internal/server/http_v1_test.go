package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
	var hz struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	doJSON(t, c, "GET", ts.URL+"/v1/healthz", "", 200, &hz)
	if hz.Status != "ok" || hz.Sessions != 0 {
		t.Fatalf("healthz = %+v", hz)
	}

	// Create, duplicate-create, list, info, destroy.
	var sj sessionJSON
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"a","seed":7,"retention":128}`, 201, &sj)
	if sj.Name != "a" || sj.Seed != 7 || sj.Retention != 128 || sj.Running {
		t.Fatalf("created = %+v", sj)
	}
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"a"}`, http.StatusConflict, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"b","tick":"bogus"}`, 400, nil)
	var list []sessionJSON
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
	var qj struct {
		ID string `json:"id"`
	}
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/w/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, &qj)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/w/step?n=10", "", 200, nil)

	sess, err := s.Manager().Get("w")
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

	type pageJSON struct {
		Tuples []struct {
			ID uint64  `json:"id"`
			T  float64 `json:"t"`
		} `json:"tuples"`
		NextCursor uint64 `json:"nextCursor"`
		Dropped    uint64 `json:"dropped"`
		Retained   int    `json:"retained"`
		Total      uint64 `json:"total"`
	}
	var got []uint64
	var cursor uint64
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("pagination did not terminate")
		}
		var pj pageJSON
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

// TestHTTPStreamDeliversWithoutStep is the acceptance check that streaming
// delivers tuples for a live query with no /step polling: the session ticks
// on its own clock and the client just reads.
func TestHTTPStreamDeliversWithoutStep(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"live","seed":5,"tick":"2ms"}`, 201, nil)
	var qj struct {
		ID string `json:"id"`
	}
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
		var tp struct {
			Attr string  `json:"attr"`
			T    float64 `json:"t"`
		}
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
	var qj struct {
		ID string `json:"id"`
	}
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
			var tp struct {
				T float64 `json:"t"`
			}
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
	var qj struct {
		ID string `json:"id"`
	}
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
	var qj struct {
		ID string `json:"id"`
	}
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

	var out []struct {
		ID string `json:"id"`
	}
	script := "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3;\nACQUIRE temp FROM RECT(4,0,8,4) RATE 2;"
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/q/script", script, 201, &out)
	if len(out) != 2 {
		t.Fatalf("script queries = %+v", out)
	}
	var listed []struct {
		ID string `json:"id"`
	}
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

// TestWriteJSONLogsEncodeFailure covers the satellite requirement that
// writeJSON surfaces encode errors instead of discarding them.
func TestWriteJSONLogsEncodeFailure(t *testing.T) {
	_, s := newManagerTestServer(t)
	var logged []string
	s.SetLogf(func(format string, args ...interface{}) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
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
