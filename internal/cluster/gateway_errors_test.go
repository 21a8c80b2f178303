package cluster_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// requireError sends one request and checks the answer byte for byte:
// status, Retry-After and body — or, when the body carries an OS error,
// only its fixed prefix.
func requireError(t *testing.T, method, url, body string, status int, retryAfter, want string, prefixOnly bool) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	match := got == want
	if prefixOnly {
		match = strings.HasPrefix(got, want) && strings.HasSuffix(got, "\"}\n")
	}
	if resp.StatusCode != status || !match {
		t.Errorf("%s %s = %d %q, want %d %q", method, url, resp.StatusCode, got, status, want)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfter {
		t.Errorf("%s %s: Retry-After %q, want %q", method, url, ra, retryAfter)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q, want application/json", method, url, ct)
	}
}

// TestGatewayErrorStatuses pins every error answer the gateway gives of its
// own: the retryable 503s (no healthy node yet, a session mid-handoff, an
// owner that died under the proxy) and the refusals of a create body it
// cannot route.
func TestGatewayErrorStatuses(t *testing.T) {
	// Before the first probe round no node is healthy.
	cold, err := cluster.NewGateway([]string{startNode(t, t.TempDir(), "c0", 4).ts.URL},
		cluster.GatewayConfig{Pool: cluster.PoolConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	coldts := httptest.NewServer(cold)
	defer coldts.Close()
	requireError(t, "GET", coldts.URL+"/v1/sessions/x/status", "", 503, "1",
		`{"error":"no healthy nodes"}`+"\n", false)

	// Create bodies the gateway cannot route are refused before routing.
	big := `{"name":"` + strings.Repeat("a", server.MaxSpecBytes) + `"}`
	requireError(t, "POST", coldts.URL+"/v1/sessions", big, 413, "",
		`{"error":"read body: wire: request body exceeds size limit"}`+"\n", false)
	requireError(t, "POST", coldts.URL+"/v1/sessions", "{", 400, "",
		`{"error":"parse body: unexpected end of JSON input"}`+"\n", false)
	for _, body := range []string{"", `{"seed":1}`} {
		requireError(t, "POST", coldts.URL+"/v1/sessions", body, 400, "",
			`{"error":"name required behind a gateway"}`+"\n", false)
	}

	// One session per node, on nodes that hold one session each. The
	// survivors' sessions keep their owners when n0 leaves the ring.
	nodes, g, gwts := startCluster(t, t.TempDir(), 1)
	full := cluster.BuildRing([]string{"n0", "n1", "n2"}, 0)
	rest := cluster.BuildRing([]string{"n1", "n2"}, 0)
	names := map[string]string{} // owner -> session
	for i := 0; len(names) < len(nodes); i++ {
		s := fmt.Sprintf("e%d", i)
		if o := full.Owner(s); names[o] == "" && (o == "n0" || rest.Owner(s) == o) {
			names[o] = s
		}
	}
	c := client.New(gwts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range names {
		if _, err := c.CreateSession(ctx, client.SessionSpec{Name: s, Source: "external", Tolerance: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	moving := names["n0"]

	// n0 dies; until the failure detector notices, the proxy meets a dead
	// owner.
	nodes[0].kill(t)
	requireError(t, "GET", gwts.URL+"/v1/sessions/"+moving+"/status", "", 503, "1",
		`{"error":"node unreachable: `, true)

	// Once it has noticed, the session's new owner is full, so the move
	// cannot finish and the session stays mid-handoff.
	detectFailure(g)
	requireError(t, "GET", gwts.URL+"/v1/sessions/"+moving+"/status", "", 503, "1",
		`{"error":"session \"`+moving+`\" handoff in progress"}`+"\n", false)
}
