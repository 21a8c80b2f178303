package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/world"
)

// node is one in-process craqrd in cluster node mode.
type node struct {
	name string
	m    *server.Manager
	ts   *httptest.Server
	dead bool
}

// startNode boots a node-mode craqrd over a (shared) durability root: the
// same engine template on every node, external source, no auto-recovery,
// no pinned default session — exactly what `craqrd -node-name` runs.
func startNode(t *testing.T, root, name string, maxSessions int) *node {
	t.Helper()
	tpl := world.Template(60)
	tpl.Seed = 7
	tpl.Retention = 8192
	tpl.Source = server.SourceConfig{Mode: server.SourceExternal, Tolerance: 0.5}
	tpl.Durability = server.DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
	m, err := server.NewManager(server.ManagerConfig{
		NewEngine:     server.NewEngineFactory(tpl, world.Fields),
		MaxSessions:   maxSessions,
		DurabilityDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := server.NewManagerHTTPServer(m, "")
	if err != nil {
		t.Fatal(err)
	}
	hs.SetNodeName(name)
	n := &node{name: name, m: m, ts: httptest.NewServer(hs)}
	t.Cleanup(func() {
		if !n.dead {
			n.kill(t)
		}
	})
	return n
}

// kill takes the node down abruptly from the cluster's point of view:
// open connections die mid-stream, then the process state goes away. The
// durable state on the shared volume survives, like a kill -9 would leave
// it (the true kill -9 path is scripts/cluster_e2e.sh).
func (n *node) kill(t *testing.T) {
	t.Helper()
	n.dead = true
	n.ts.CloseClientConnections()
	if err := n.m.Close(); err != nil {
		t.Logf("closing node %s: %v", n.name, err)
	}
	n.ts.Close()
}

// startCluster boots 3 nodes over one shared root plus a gateway fronting
// them. Failure detection is driven manually (CheckNow/Reconcile) so the
// tests are deterministic; FailAfter=2 means two failed rounds mark a
// node down.
func startCluster(t *testing.T, root string, maxSessions int) ([]*node, *cluster.Gateway, *httptest.Server) {
	t.Helper()
	nodes := []*node{
		startNode(t, root, "n0", maxSessions),
		startNode(t, root, "n1", maxSessions),
		startNode(t, root, "n2", maxSessions),
	}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	g, err := cluster.NewGateway(urls, cluster.GatewayConfig{
		Pool: cluster.PoolConfig{Interval: time.Hour, FailAfter: 2, UpAfter: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(ts.Close)
	ctx := context.Background()
	g.Pool().CheckNow(ctx)
	g.Reconcile(ctx)
	return nodes, g, ts
}

func detectFailure(g *cluster.Gateway) {
	ctx := context.Background()
	g.Pool().CheckNow(ctx)
	g.Pool().CheckNow(ctx) // FailAfter=2
	g.Reconcile(ctx)
}

// getDoc GETs one JSON body into out.
func getDoc(t *testing.T, url string, out interface{}) {
	t.Helper()
	if err := json.Unmarshal(getBody(t, url), out); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayScaleOutAndStatus pins the scale-out acceptance criterion:
// through the gateway the 3-node pool hosts strictly more concurrent
// sessions than one node's MaxSessions cap, every session lands on its
// ring owner, and the status routes report the pool truthfully — before
// and after a node death.
func TestGatewayScaleOutAndStatus(t *testing.T) {
	root := t.TempDir()
	const cap = 4
	nodes, g, gwts := startCluster(t, root, cap)
	c := client.New(gwts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	byName := map[string]*node{}
	for _, n := range nodes {
		byName[n.name] = n
	}

	// Five sessions (> one node's cap of 4), chosen so the ring spreads
	// them at most two per node — placement is deterministic, so this
	// selection is too.
	ring := cluster.BuildRing([]string{"n0", "n1", "n2"}, 0)
	counts := map[string]int{}
	var names []string
	for i := 0; len(names) < cap+1 && i < 1000; i++ {
		nm := fmt.Sprintf("fleet-%d", i)
		if o := ring.Owner(nm); counts[o] < 2 {
			counts[o]++
			names = append(names, nm)
		}
	}
	for _, nm := range names {
		if _, err := c.CreateSession(ctx, client.SessionSpec{Name: nm, Source: "external", Tolerance: 0.5}); err != nil {
			t.Fatalf("create %s through gateway: %v", nm, err)
		}
	}
	// More live sessions than any single node could hold…
	sessions, err := c.Sessions(ctx)
	if err != nil || len(sessions) != cap+1 {
		t.Fatalf("gateway session list = %d sessions (%v), want %d > one node's cap %d",
			len(sessions), err, cap+1, cap)
	}
	// …and each one lives exactly on its ring owner.
	for _, nm := range names {
		owner := ring.Owner(nm)
		if _, err := byName[owner].m.Get(nm); err != nil {
			t.Fatalf("session %s not live on ring owner %s: %v", nm, owner, err)
		}
		for _, n := range nodes {
			if n.name == owner {
				continue
			}
			if _, err := n.m.Get(nm); err == nil {
				t.Fatalf("session %s also live on non-owner %s", nm, n.name)
			}
		}
	}

	var h client.Health
	getDoc(t, gwts.URL+"/v1/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz with full pool = %v, want ok", h.Status)
	}
	var cs client.ClusterStatus
	getDoc(t, gwts.URL+"/v1/cluster/status", &cs)
	if cs.Status != "ok" || cs.Sessions != cap+1 {
		t.Fatalf("cluster status = %v/%v sessions, want ok/%d", cs.Status, cs.Sessions, cap+1)
	}

	// Kill one node; after the detection window the gateway reports
	// degraded and has rehomed the dead node's sessions onto survivors.
	victim := byName[ring.Owner(names[0])]
	victim.kill(t)
	detectFailure(g)

	getDoc(t, gwts.URL+"/v1/healthz", &h)
	if h.Status != "degraded" {
		t.Fatalf("healthz with a dead node = %v, want degraded", h.Status)
	}
	survivors := []string{}
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n.name)
		}
	}
	ring2 := cluster.BuildRing(survivors, 0)
	for _, nm := range names {
		owner := ring2.Owner(nm)
		if _, err := byName[owner].m.Get(nm); err != nil {
			t.Fatalf("after death of %s, session %s not live on new owner %s: %v", victim.name, nm, owner, err)
		}
	}
	cs = client.ClusterStatus{}
	getDoc(t, gwts.URL+"/v1/cluster/status", &cs)
	if cs.Status != "degraded" || cs.Sessions != cap+1 {
		t.Fatalf("cluster status after death = %v/%v sessions, want degraded/%d", cs.Status, cs.Sessions, cap+1)
	}
	if len(cs.PendingHandoffs) != 0 {
		t.Fatalf("pending handoffs after reconcile = %v, want none", cs.PendingHandoffs)
	}
}

// script drives one deterministic workload against a CrAQR endpoint:
// explicit observation IDs, watermark asserts, and manual steps, with an
// optional hook (given the query ID) between the two phases. Returns the
// full result page.
func script(t *testing.T, c *client.Client, mid func(qid string)) ([]client.Tuple, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.CreateSession(ctx, client.SessionSpec{Name: "h", Source: "external", Tolerance: 0.5}); err != nil {
		t.Fatal(err)
	}
	q, err := c.Submit(ctx, "h", "ACQUIRE co2 FROM RECT(0,0,8,8) RATE 40")
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) {
		t.Helper()
		var obss []client.Observation
		for i := from; i < to; i++ {
			obss = append(obss, client.Observation{
				ID: uint64(i + 1), T: float64(i) / 40,
				X: float64(i%8) + 0.4, Y: float64(i%6) + 0.4, Value: 400 + float64(i),
			})
		}
		if _, err := c.Ingest(ctx, "h", client.Batch{Attr: "co2", Observations: obss}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0, 80)
	if _, err := c.AssertWatermark(ctx, "h", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, "h", 2); err != nil {
		t.Fatal(err)
	}
	if mid != nil {
		mid(q.ID)
	}
	ingest(80, 160)
	if _, err := c.AssertWatermark(ctx, "h", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, "h", 2); err != nil {
		t.Fatal(err)
	}
	page, err := c.Results(ctx, "h", q.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return page.Tuples, page.Total
}

// TestGatewayHandoffByteIdentical is the tentpole's correctness proof in
// process: the same workload through (a) one uninterrupted node and (b) a
// 3-node cluster whose session owner is killed mid-run must produce
// byte-identical result histories — WAL replay on the new owner re-derives
// the stream exactly, and a result stream open across the kill resumes
// without dropping or duplicating a tuple.
func TestGatewayHandoffByteIdentical(t *testing.T) {
	// Reference: one node, never interrupted.
	refNode := startNode(t, t.TempDir(), "ref", 16)
	refTuples, refTotal := script(t, client.New(refNode.ts.URL), nil)
	if refTotal == 0 || len(refTuples) == 0 {
		t.Fatalf("reference run produced no results (total %d)", refTotal)
	}

	// Cluster: same workload through the gateway, owner killed mid-run.
	root := t.TempDir()
	nodes, g, gwts := startCluster(t, root, 16)
	c := client.New(gwts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond}

	ring := cluster.BuildRing([]string{"n0", "n1", "n2"}, 0)
	owner := ring.Owner("h")
	byName := map[string]*node{}
	for _, n := range nodes {
		byName[n.name] = n
	}

	// A live stream opened before the kill: it must ride the handoff.
	streamCtx, cancelStream := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelStream()
	streamed := make(chan []client.Tuple, 1)
	streamErr := make(chan error, 1)
	var rs *client.ResultStream

	tuples, total := script(t, c, func(qid string) {
		var err error
		rs, err = c.StreamResults(streamCtx, "h", qid, 0)
		if err != nil {
			t.Fatalf("opening stream before kill: %v", err)
		}
		go func() {
			var got []client.Tuple
			for len(got) < len(refTuples) {
				tp, err := rs.Next()
				if err != nil {
					streamErr <- fmt.Errorf("after %d tuples: %w", len(got), err)
					return
				}
				got = append(got, tp)
			}
			streamed <- got
		}()
		byName[owner].kill(t)
		detectFailure(g)
	})

	if total != refTotal {
		t.Fatalf("cluster run total = %d, want %d (reference)", total, refTotal)
	}
	refJSON, _ := json.Marshal(refTuples)
	gotJSON, _ := json.Marshal(tuples)
	if string(refJSON) != string(gotJSON) {
		t.Fatalf("recovered session's results differ from uninterrupted run:\n ref %s\n got %s", refJSON, gotJSON)
	}

	select {
	case got := <-streamed:
		// The stream route spells attr/sensor explicitly where the paged
		// route elides defaults, so compare the value-bearing fields.
		key := func(tp client.Tuple) string {
			return fmt.Sprintf("%d/%g/%g/%g/%g", tp.ID, tp.T, tp.X, tp.Y, tp.Value)
		}
		for i := range refTuples {
			if key(got[i]) != key(refTuples[i]) {
				t.Fatalf("stream across handoff diverges at tuple %d: got %+v, want %+v (no drops, no dups)",
					i, got[i], refTuples[i])
			}
		}
		if rs.Dropped() != 0 {
			t.Fatalf("stream across handoff dropped %d tuples", rs.Dropped())
		}
	case err := <-streamErr:
		t.Fatalf("stream across handoff: %v", err)
	case <-time.After(45 * time.Second):
		t.Fatal("stream across handoff never delivered the full history")
	}
	rs.Close()

	// The dead node is routed around: a request for its old session works
	// through the gateway without touching it.
	ctx := context.Background()
	st, err := client.New(gwts.URL).Status(ctx, "h")
	if err != nil {
		t.Fatalf("status through gateway after kill: %v", err)
	}
	if st.Source == "" {
		t.Fatalf("status through gateway after kill = %+v", st)
	}
}

// hookTransport is the gateway's control-plane transport under test
// control: requests to a blocked host fail like a dead node's would, and
// afterList runs after every node session listing has been answered.
type hookTransport struct {
	mu        sync.Mutex
	blocked   string // host:port refused while set
	afterList func()
}

func (h *hookTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.Lock()
	blocked, hook := h.blocked, h.afterList
	h.mu.Unlock()
	if r.URL.Host == blocked {
		return nil, fmt.Errorf("dial %s: connection refused (test)", r.URL.Host)
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && hook != nil && r.Method == "GET" && r.URL.Path == "/v1/sessions" {
		hook()
	}
	return resp, err
}

// TestGatewayCreateDuringJoinDiscovery pins the window a membership change
// opens: a session created while the reconciler is still discovering is
// routed by the old ring, after its old owner's list was read, so the pass
// cannot mark it pending. Once Reconcile returns, the session must be
// reachable on its new owner, not answer 404 until the next tick.
func TestGatewayCreateDuringJoinDiscovery(t *testing.T) {
	root := t.TempDir()
	nodes := []*node{
		startNode(t, root, "n0", 16),
		startNode(t, root, "n1", 16),
		startNode(t, root, "n2", 16),
	}
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	joiner, err := url.Parse(urls[2])
	if err != nil {
		t.Fatal(err)
	}
	tr := &hookTransport{blocked: joiner.Host}
	g, err := cluster.NewGateway(urls, cluster.GatewayConfig{
		Transport: tr,
		Pool:      cluster.PoolConfig{Interval: time.Hour, FailAfter: 2, UpAfter: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := httptest.NewServer(g)
	t.Cleanup(gwts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g.Pool().CheckNow(ctx)
	g.Reconcile(ctx) // ring {n0, n1}

	// A session the join displaces onto the joiner.
	before := cluster.BuildRing([]string{"n0", "n1"}, 0)
	after := cluster.BuildRing([]string{"n0", "n1", "n2"}, 0)
	name := ""
	for i := 0; name == ""; i++ {
		if s := fmt.Sprintf("j%d", i); after.Owner(s) == "n2" {
			name = s
		}
	}
	oldOwner := before.Owner(name)

	// n2 joins; the create lands when the pass has read its last listing.
	c := client.New(gwts.URL)
	lists := 0
	tr.mu.Lock()
	tr.blocked = ""
	tr.afterList = func() {
		if lists++; lists != len(nodes) {
			return
		}
		if _, err := c.CreateSession(ctx, client.SessionSpec{Name: name, Source: "external", Tolerance: 0.5}); err != nil {
			t.Errorf("create during discovery: %v", err)
		}
	}
	tr.mu.Unlock()
	g.Pool().CheckNow(ctx)
	g.Reconcile(ctx)
	if lists < len(nodes) {
		t.Fatalf("hook saw %d listings, want at least %d", lists, len(nodes))
	}

	noRetry := client.New(gwts.URL)
	noRetry.Retry = client.RetryPolicy{MaxAttempts: 1}
	if _, err := noRetry.Status(ctx, name); err != nil {
		t.Fatalf("session %q created during discovery (old owner %s, new owner n2) unreachable after Reconcile: %v", name, oldOwner, err)
	}
	if _, err := client.New(nodes[2].ts.URL).Status(ctx, name); err != nil {
		t.Fatalf("session %q not live on its new owner n2: %v", name, err)
	}
}

// TestGatewaySurface pins what the gateway refuses: a create without a name
// (the node would mint "sN" from its own counter — a name the ring never
// placed, and one two nodes can both mint) is a 400 that reaches no node,
// and the removed single-session routes are 404 like on a craqrd.
func TestGatewaySurface(t *testing.T) {
	nodes, _, gw := startCluster(t, t.TempDir(), 4)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(gw.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, body := range []string{``, `{}`, `{"seed": 3}`} {
		if status, msg := post("/v1/sessions", body); status != http.StatusBadRequest || !strings.Contains(msg, "name required behind a gateway") {
			t.Fatalf("nameless create %q = %d %s, want 400 naming the reason", body, status, msg)
		}
	}
	for _, n := range nodes {
		if n.m.Len() != 0 {
			t.Fatalf("nameless create reached node %s", n.name)
		}
	}
	if status, msg := post("/v1/sessions", `{"name": "default"}`); status != http.StatusCreated {
		t.Fatalf("named create = %d %s", status, msg)
	}
	for _, rt := range []string{"GET /status", "POST /queries", "GET /queries", "POST /step", "GET /results/Q1", "POST /script", "DELETE /queries/Q1"} {
		method, path, _ := strings.Cut(rt, " ")
		req, err := http.NewRequest(method, gw.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s through the gateway = %d, want 404", rt, resp.StatusCode)
		}
	}
}

// TestGatewayCreateBodyCap: a create body past the node's cap is a 413 at the
// gateway as at a node, however far past — a 2 MiB name included — and
// reaches no node.
func TestGatewayCreateBodyCap(t *testing.T) {
	nodes, _, gw := startCluster(t, t.TempDir(), 4)
	for _, size := range []int{server.MaxSpecBytes, 2 << 20} {
		body := `{"name":"` + strings.Repeat("n", size) + `"}`
		resp, err := http.Post(gw.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte create = %d %s, want 413", len(body), resp.StatusCode, msg)
		}
	}
	for _, n := range nodes {
		if n.m.Len() != 0 {
			t.Fatalf("oversized create reached node %s", n.name)
		}
	}
}

// getRaw GETs a URL and returns the body bytes.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d %s (%v)", url, resp.StatusCode, data, err)
	}
	return data
}

// TestHealthzAndListBodies pins the healthz bodies of a node and of the
// gateway, and the gateway's merged session list, to the bytes of the maps
// and the raw-document merge they were rendered from before client.Health
// and client.Session declared them.
func TestHealthzAndListBodies(t *testing.T) {
	nodes, g, gwts := startCluster(t, t.TempDir(), 4)
	c := client.New(gwts.URL)
	ctx := context.Background()
	limits := &client.TenantLimits{MaxQueries: 8, RateTuplesPerSec: 1e4}
	for i, spec := range []client.SessionSpec{
		{Name: "b", Source: "external", Tolerance: 0.5, Seed: 3, Retention: 64},
		{Name: "a", Source: "external", Weight: 2, Limits: limits},
		{Name: "c", Source: "external"},
	} {
		if _, err := c.CreateSession(ctx, spec); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	g.Pool().CheckNow(ctx)

	encode := func(v interface{}) string {
		var buf strings.Builder
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ingest := map[string]interface{}{
		"codecs":    []string{"application/json", "application/x-ndjson", "application/x-craqr-batch"},
		"encodings": wire.Encodings(),
	}
	want := encode(map[string]interface{}{
		"status": "ok", "role": "gateway", "sessions": 3,
		"nodes":  map[string]interface{}{"total": 3, "healthy": 3},
		"ingest": ingest,
	})
	if got := string(getRaw(t, gwts.URL+"/v1/healthz")); got != want {
		t.Errorf("gateway healthz:\n got %s\nwant %s", got, want)
	}
	n := nodes[0]
	want = encode(map[string]interface{}{"status": "ok", "sessions": n.m.Len(), "node": n.name, "ingest": ingest})
	if got := string(getRaw(t, n.ts.URL+"/v1/healthz")); got != want {
		t.Errorf("node healthz:\n got %s\nwant %s", got, want)
	}

	type entry struct {
		name string
		raw  json.RawMessage
	}
	var all []entry
	for _, n := range nodes {
		var docs []json.RawMessage
		if err := json.Unmarshal(getRaw(t, n.ts.URL+"/v1/sessions"), &docs); err != nil {
			t.Fatal(err)
		}
		for _, raw := range docs {
			var named struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(raw, &named); err != nil {
				t.Fatal(err)
			}
			all = append(all, entry{named.Name, raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	merged := make([]json.RawMessage, len(all))
	for i, e := range all {
		merged[i] = e.raw
	}
	if len(merged) != 3 {
		t.Fatalf("nodes list %d sessions, want 3", len(merged))
	}
	if got, want := string(getRaw(t, gwts.URL+"/v1/sessions")), encode(merged); got != want {
		t.Errorf("gateway session list:\n got %s\nwant %s", got, want)
	}
}
