package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
)

// getBody GETs url and returns the answer's bytes, failing unless it is a 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// clusterStatusBodies reads GET /v1/cluster/status from a 3-node pool, once
// healthy and once after the node listed last died and the gateway moved its
// sessions. There are six sessions, one per (owner, heir) pair, the heir
// being the node that owns a session once its owner is gone: every live node
// serves two while all are up and three after any one dies, so each live
// node's entry has the same layout wherever its random port sorts it. check,
// when not nil, sees each body as soon as it is read, while the gateway
// still holds what it reports. gateway is the gateway's URL.
func clusterStatusBodies(t *testing.T, check func(body []byte, nodes []*node, g *cluster.Gateway)) (healthy, degraded []byte, gateway string) {
	t.Helper()
	nodes, g, gwts := startCluster(t, t.TempDir(), 8)
	c := client.New(gwts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	names := []string{"n0", "n1", "n2"}
	full := cluster.BuildRing(names, 0)
	pairs := map[string]bool{}
	for i := 0; len(pairs) < 6; i++ {
		session := fmt.Sprintf("fleet-%d", i)
		owner := full.Owner(session)
		heirs := slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == owner })
		pair := owner + ">" + cluster.BuildRing(heirs, 0).Owner(session)
		if pairs[pair] {
			continue
		}
		pairs[pair] = true
		if _, err := c.CreateSession(ctx, client.SessionSpec{Name: session, Source: "external"}); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		body := getBody(t, gwts.URL+"/v1/cluster/status")
		if check != nil {
			check(body, nodes, g)
		}
		return body
	}
	healthy = read()
	last := nodes[0]
	for _, n := range nodes {
		if n.ts.URL > last.ts.URL {
			last = n
		}
	}
	last.kill(t)
	detectFailure(g)
	return healthy, read(), gwts.URL
}

// masked matches the strings maskedLayout hides: node and session names,
// which a node's random port decides the position of, and loopback
// addresses (node URLs, probe errors).
var masked = regexp.MustCompile(`^(n\d|fleet-\d+)$|127\.0\.0\.1`)

// maskedLayout renders a JSON body one token per line, indented by depth,
// with every number replaced by # and every masked string by "…": the
// body's layout — key order, nesting, the null and [] conventions — without
// its measurements.
func maskedLayout(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var b strings.Builder
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return b.String()
		}
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			depth--
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch v := tok.(type) {
		case json.Delim:
			b.WriteString(v.String())
			if v == '{' || v == '[' {
				depth++
			}
		case json.Number:
			b.WriteByte('#')
		case string:
			if masked.MatchString(v) {
				v = "…"
			}
			fmt.Fprintf(&b, "%q", v)
		case bool:
			fmt.Fprint(&b, v)
		case nil:
			b.WriteString("null")
		}
		b.WriteByte('\n')
	}
}

// TestClusterStatusBodyLayout holds the healthy and the degraded cluster
// status to the layout recorded in testdata/cluster_status_layout.golden
// before the body was declared as a type.
func TestClusterStatusBodyLayout(t *testing.T) {
	want, err := os.ReadFile("testdata/cluster_status_layout.golden")
	if err != nil {
		t.Fatal(err)
	}
	healthy, degraded, _ := clusterStatusBodies(t, nil)
	got := "== healthy ==\n" + maskedLayout(t, healthy) + "== degraded ==\n" + maskedLayout(t, degraded)
	if got != string(want) {
		t.Errorf("cluster status layout differs from testdata/cluster_status_layout.golden; got:\n%s", got)
	}
}

// decodeStrict decodes one JSON body into out, refusing any field the type
// does not declare and anything after the value.
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

// TestClusterBodiesDecodeStrictly: the healthy and the degraded cluster
// status decode, with unknown fields refused, into client.ClusterStatus, to
// what the pool and the nodes hold; so does the gateway's own 4xx.
func TestClusterBodiesDecodeStrictly(t *testing.T) {
	_, _, gw := clusterStatusBodies(t, func(body []byte, nodes []*node, g *cluster.Gateway) {
		var got client.ClusterStatus
		decodeStrict(t, body, &got)
		want := client.ClusterStatus{
			Nodes:           g.Pool().Snapshot(),
			PendingHandoffs: []string{},
			Ring:            client.ClusterRing{VNodes: cluster.DefaultVirtualNodes},
			Status:          "ok",
		}
		byURL := map[string]*node{}
		for _, n := range nodes {
			byURL[n.ts.URL] = n
		}
		for _, n := range want.Nodes {
			if n.Healthy {
				want.Ring.Nodes = append(want.Ring.Nodes, n.Name)
			} else {
				want.Status = "degraded"
			}
		}
		sort.Strings(want.Ring.Nodes)
		ring := cluster.BuildRing(want.Ring.Nodes, 0)
		owned := map[string]int{}
		for i, n := range want.Nodes {
			if !n.Healthy {
				continue
			}
			for _, sess := range byURL[n.URL].m.List() {
				want.Nodes[i].Live = append(want.Nodes[i].Live, sess.Name)
				owned[ring.Owner(sess.Name)]++
				want.Sessions++
			}
		}
		for i := range want.Nodes {
			want.Nodes[i].Owned = owned[want.Nodes[i].Name]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cluster status decoded %+v, want %+v", got, want)
		}
	})

	resp, err := http.Post(gw+"/v1/sessions", "application/json", strings.NewReader(`{"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var refusal client.ErrorBody
	decodeStrict(t, body, &refusal)
	if resp.StatusCode != http.StatusBadRequest || refusal.Error != "name required behind a gateway" {
		t.Errorf("nameless create through the gateway = %d %+v", resp.StatusCode, refusal)
	}
}
