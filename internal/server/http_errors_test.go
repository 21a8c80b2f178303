package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// noFlushWriter is a ResponseWriter without http.Flusher: what a result
// stream refuses to serve on.
type noFlushWriter struct{ rec *httptest.ResponseRecorder }

func (w noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w noFlushWriter) Write(p []byte) (int, error) { return w.rec.Write(p) }
func (w noFlushWriter) WriteHeader(status int)      { w.rec.WriteHeader(status) }

// TestHTTPErrorStatuses pins every error answer the handlers give for a
// refusal of their own — not one the error table derives from a typed
// error — byte for byte: status, Retry-After (none) and body.
func TestHTTPErrorStatuses(t *testing.T) {
	ts, hs := newManagerTestServer(t)
	hs.SetNodeName("n0")
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"s"}`, 201, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/s/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", 201, nil)

	type answer struct {
		status int
		body   string
	}
	check := func(what string, status int, header http.Header, body string, want answer) {
		t.Helper()
		if status != want.status || body != want.body {
			t.Errorf("%s = %d %q, want %d %q", what, status, body, want.status, want.body)
		}
		if ct := header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
		if ra := header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q, want none", what, ra)
		}
	}
	for _, tc := range []struct {
		method, path, body string
		header             map[string]string
		want               answer
	}{
		{"GET", "/v1/sessions/s/status", "", map[string]string{HeaderExpectNode: "n1"},
			answer{421, `{"error":"server: request routed for node \"n1\" but this is \"n0\""}` + "\n"}},
		{"POST", "/v1/sessions", `{"name":"a","bogus":1}`, nil,
			answer{400, `{"error":"invalid session spec: json: unknown field \"bogus\""}` + "\n"}},
		{"POST", "/v1/sessions", `{"name":"a"}{"seed":1}`, nil,
			answer{400, `{"error":"invalid session spec: data after the spec object"}` + "\n"}},
		{"POST", "/v1/sessions/s/queries", "ACQUIRE rain FROM", nil,
			answer{400, `{"error":"craql: parse error at offset 17: expected keyword RECT, got \"\""}` + "\n"}},
		{"GET", "/v1/sessions/s/queries/nope/plan", "", nil,
			answer{404, `{"error":"server: no such query \"nope\""}` + "\n"}},
		{"POST", "/v1/sessions/s/step?n=0", "", nil,
			answer{400, `{"error":"invalid n \"0\""}` + "\n"}},
		{"GET", "/v1/sessions/s/results/nope", "", nil,
			answer{404, `{"error":"server: no result store for query \"nope\""}` + "\n"}},
		{"GET", "/v1/sessions/s/results/Q1?cursor=x", "", nil,
			answer{400, `{"error":"invalid cursor \"x\""}` + "\n"}},
		{"GET", "/v1/sessions/s/results/nope/stream", "", nil,
			answer{404, `{"error":"server: no result store for query \"nope\""}` + "\n"}},
		{"GET", "/v1/sessions/s/results/Q1/stream?limit=-1", "", nil,
			answer{400, `{"error":"invalid limit \"-1\""}` + "\n"}},
	} {
		what := tc.method + " " + tc.path
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range tc.header {
			req.Header.Set(k, v)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(what, resp.StatusCode, resp.Header, string(body), tc.want)
	}

	// A connection that cannot flush cannot carry a result stream.
	rec := httptest.NewRecorder()
	hs.ServeHTTP(noFlushWriter{rec}, httptest.NewRequest("GET", "/v1/sessions/s/results/Q1/stream", nil))
	check("stream without a Flusher", rec.Code, rec.Header(), rec.Body.String(),
		answer{500, `{"error":"streaming unsupported by connection"}` + "\n"})
}
