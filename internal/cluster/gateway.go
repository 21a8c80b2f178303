package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// GatewayConfig shapes a Gateway. The zero value is usable.
type GatewayConfig struct {
	// Pool is the failure-detection configuration for the node pool.
	Pool PoolConfig
	// VirtualNodes is the ring's vnode multiplier (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Client performs control-plane calls (durable listing, recover,
	// release) against nodes (nil = 5s-timeout client).
	Client *http.Client
	// Logf receives routing and handoff diagnostics (nil = silent).
	Logf func(format string, args ...interface{})
}

// Gateway is the stateless cluster front door: it proxies every
// session-scoped /v1 request to the craqrd node that a consistent-hash
// ring over the healthy pool says owns the session, and converges
// ownership after membership changes by releasing sessions on non-owners
// and recovering them on owners via deterministic WAL replay from the
// shared durability volume.
//
// Statelessness is literal: everything the gateway knows — membership,
// the ring, which sessions exist — is re-derived from the nodes, so a
// gateway restart loses nothing and a second gateway over the same pool
// computes identical placement.
type Gateway struct {
	cfg   GatewayConfig
	pool  *Pool
	mux   *http.ServeMux
	proxy *httputil.ReverseProxy

	mu      sync.Mutex
	ring    *Ring
	nodeURL map[string]string // advertised name -> base URL
	pending map[string]bool   // sessions mid-handoff: answer 503 + Retry-After

	reconcileMu sync.Mutex // single-flights reconcile passes
}

// proxyTarget travels on the request context from route to the shared
// ReverseProxy's Rewrite hook.
type proxyTarget struct {
	base *url.URL
	node string
}

type targetKey struct{}

// NewGateway builds a gateway over the given craqrd base URLs. Call Run
// to start failure detection; until the first check round completes every
// request answers 503.
func NewGateway(nodeURLs []string, cfg GatewayConfig) (*Gateway, error) {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if len(nodeURLs) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one node URL")
	}
	g := &Gateway{
		cfg:     cfg,
		pool:    NewPool(nodeURLs, cfg.Pool),
		mux:     http.NewServeMux(),
		ring:    BuildRing(nil, cfg.VirtualNodes),
		nodeURL: map[string]string{},
		pending: map[string]bool{},
	}
	g.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			t := pr.In.Context().Value(targetKey{}).(proxyTarget)
			pr.SetURL(t.base)
			pr.SetXForwarded()
			// The ownership assert: the node refuses with 421 if it is not
			// who the ring said it was (stale DNS, swapped ports), so a
			// misrouted write can never reach the wrong WAL.
			pr.Out.Header.Set(server.HeaderExpectNode, t.node)
		},
		// Result streams are long-lived ndjson: flush every write through
		// to the client instead of buffering.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			// The node died mid-request (or just now). Tell the client to
			// back off and retry — by the next attempt the failure detector
			// will have rerouted the session.
			g.cfg.Logf("cluster: proxy %s %s: %v", r.Method, r.URL.Path, err)
			g.unavailable(w, fmt.Sprintf("node unreachable: %v", err))
		},
	}

	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/cluster/status", g.handleClusterStatus)
	g.mux.HandleFunc("GET /v1/sessions", g.handleSessionList)
	g.mux.HandleFunc("POST /v1/sessions", g.handleSessionCreate)
	g.mux.HandleFunc("/v1/sessions/{session}", g.handleSessionScoped)
	g.mux.HandleFunc("/v1/sessions/{session}/", g.handleSessionScoped)
	return g, nil
}

// Run drives failure detection and ownership convergence until ctx is
// done: an immediate check+reconcile so the gateway is useful at startup,
// then a reconcile after every probe round that changed membership or
// left handoffs pending.
func (g *Gateway) Run(ctx context.Context) {
	if g.pool.CheckNow(ctx) {
		g.Reconcile(ctx)
	}
	interval := g.cfg.Pool.withDefaults().Interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			changed := g.pool.CheckNow(ctx)
			if changed || g.pendingCount() > 0 {
				g.Reconcile(ctx)
			}
		}
	}
}

func (g *Gateway) pendingCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// unavailable answers the retryable 503 the Go client backs off on, with
// a Retry-After floor matched to the failure-detection window.
func (g *Gateway) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// route proxies r to the ring owner of session, or answers a retryable
// 503 while the session is mid-handoff or the pool is empty.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, session string) {
	g.mu.Lock()
	ring, urls, pending := g.ring, g.nodeURL, g.pending[session]
	g.mu.Unlock()
	if pending {
		g.unavailable(w, fmt.Sprintf("session %q handoff in progress", session))
		return
	}
	owner := ring.Owner(session)
	if owner == "" {
		g.unavailable(w, "no healthy nodes")
		return
	}
	base, err := url.Parse(urls[owner])
	if err != nil || urls[owner] == "" {
		g.unavailable(w, fmt.Sprintf("owner %q has no routable URL", owner))
		return
	}
	ctx := context.WithValue(r.Context(), targetKey{}, proxyTarget{base: base, node: owner})
	g.proxy.ServeHTTP(w, r.WithContext(ctx))
}

func (g *Gateway) handleSessionScoped(w http.ResponseWriter, r *http.Request) {
	g.route(w, r, r.PathValue("session"))
}

// handleSessionCreate peeks the create body for the session name (the
// only session-scoped request whose session is in the body, not the
// path), then proxies to that name's owner with the body restored. A body
// without a name is refused: the node would mint "sN" from its own counter,
// a name the ring never hashed — the session would sit on a node that does
// not own it, and two nodes could both mint "s1". A body past the node's
// cap is refused whole (413), as the node would.
func (g *Gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, err := wire.ReadBody(r.Body, server.MaxSpecBytes, nil)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, wire.ErrBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]interface{}{"error": "read body: " + err.Error()})
		return
	}
	var spec struct {
		Name string `json:"name"`
	}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &spec); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]interface{}{"error": "parse body: " + err.Error()})
			return
		}
	}
	if spec.Name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]interface{}{"error": "name required behind a gateway"})
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	g.route(w, r, spec.Name)
}

// handleSessionList merges every healthy node's live session list into
// one document, sorted by name — through the gateway the pool reads like
// one big craqrd.
func (g *Gateway) handleSessionList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		name string
		raw  json.RawMessage
	}
	var all []entry
	for _, n := range g.pool.Healthy() {
		var docs []json.RawMessage
		if err := g.getJSON(r.Context(), n.URL+"/v1/sessions", &docs); err != nil {
			g.cfg.Logf("cluster: list sessions on %s: %v", n.Name, err)
			continue
		}
		for _, raw := range docs {
			var named struct {
				Name string `json:"name"`
			}
			_ = json.Unmarshal(raw, &named)
			all = append(all, entry{name: named.Name, raw: raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	// Same shape as one craqrd's list: a bare array.
	out := make([]json.RawMessage, len(all))
	for i, e := range all {
		out[i] = e.raw
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports pool health in the same envelope a craqrd answers
// with, so client codec negotiation works unchanged through the gateway.
// status is "degraded" (not an error code — routing still works through
// the survivors) whenever any configured node is down.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := g.pool.Snapshot()
	healthy, sessions := 0, 0
	for _, n := range snap {
		if n.Healthy {
			healthy++
			sessions += n.Sessions
		}
	}
	status := "ok"
	if healthy < len(snap) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":   status,
		"role":     "gateway",
		"sessions": sessions,
		"nodes":    map[string]interface{}{"total": len(snap), "healthy": healthy},
		"ingest": map[string]interface{}{
			"codecs":    server.IngestCodecs,
			"encodings": wire.Encodings(),
		},
	})
}

// handleClusterStatus aggregates per-node health, live sessions, and ring
// ownership into one JSON document (see docs/API.md).
func (g *Gateway) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	snap := g.pool.Snapshot()
	g.mu.Lock()
	ring := g.ring
	pending := make([]string, 0, len(g.pending))
	for s := range g.pending {
		pending = append(pending, s)
	}
	g.mu.Unlock()
	sort.Strings(pending)

	type nodeDoc struct {
		NodeStatus
		Live  []string `json:"live,omitempty"`
		Owned int      `json:"owned"`
	}
	nodes := make([]nodeDoc, len(snap))
	owned := map[string]int{}
	distinct := map[string]bool{}
	healthy := 0
	for i, n := range snap {
		nodes[i] = nodeDoc{NodeStatus: n}
		if !n.Healthy {
			continue
		}
		healthy++
		live, err := g.nodeSessions(r.Context(), n.URL)
		if err != nil {
			g.cfg.Logf("cluster: status: sessions on %s: %v", n.Name, err)
			continue
		}
		nodes[i].Live = live
		for _, s := range live {
			distinct[s] = true
			owned[ring.Owner(s)]++
		}
	}
	for i := range nodes {
		nodes[i].Owned = owned[nodes[i].Name]
	}
	status := "ok"
	if healthy < len(snap) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":          status,
		"ring":            map[string]interface{}{"nodes": ring.Nodes(), "vnodes": g.cfg.VirtualNodes},
		"nodes":           nodes,
		"sessions":        len(distinct),
		"pendingHandoffs": pending,
	})
}

// --- control plane against nodes ---

func (g *Gateway) getJSON(ctx context.Context, url string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (g *Gateway) postJSON(ctx context.Context, url string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, "POST", url, nil)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// nodeSessions lists the live session names on one node, sorted.
func (g *Gateway) nodeSessions(ctx context.Context, base string) ([]string, error) {
	var docs []struct {
		Name string `json:"name"`
	}
	if err := g.getJSON(ctx, base+"/v1/sessions", &docs); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(docs))
	for _, s := range docs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names, nil
}

// nodeDurable lists the sessions with durable state visible to one node.
func (g *Gateway) nodeDurable(ctx context.Context, base string) ([]string, error) {
	var doc struct {
		Sessions []string `json:"sessions"`
	}
	if err := g.getJSON(ctx, base+"/v1/node/durable", &doc); err != nil {
		return nil, err
	}
	return doc.Sessions, nil
}

// Reconcile converges session placement onto the current healthy set: it
// builds the candidate ring, discovers which sessions that ring displaces,
// and only then publishes ring, node URLs and the pending set together —
// so the router never sees the new ring without the displaced sessions
// already marked pending. Until that publication requests keep routing by
// the old ring (a dead owner answers a retryable 503 through the proxy's
// error handler); after it, sessions mid-move answer 503 + Retry-After
// until released on the nodes that lost them and recovered on their owner
// by WAL replay, so a request can never interleave with a handoff and
// reach two engines, nor reach an owner that has not replayed the session
// yet.
//
// A pass that changed the ring's membership is followed by a second one at
// once: a session created while the first was discovering was routed by the
// old ring, possibly to a node whose list had already been read, and the
// second pass (same ring, fresh lists) finds it misplaced and moves it
// instead of leaving it unreachable until the next tick. Safe to call
// concurrently; passes single-flight.
func (g *Gateway) Reconcile(ctx context.Context) {
	g.reconcileMu.Lock()
	defer g.reconcileMu.Unlock()
	if g.reconcilePass(ctx) {
		g.reconcilePass(ctx)
	}
}

// reconcilePass is one discover–publish–move pass; it reports whether the
// ring it published has different members than the one it replaced.
func (g *Gateway) reconcilePass(ctx context.Context) (membershipChanged bool) {
	healthy := g.pool.Healthy()
	names := make([]string, 0, len(healthy))
	urls := make(map[string]string, len(healthy))
	for _, n := range healthy {
		names = append(names, n.Name)
		urls[n.Name] = n.URL
	}
	ring := BuildRing(names, g.cfg.VirtualNodes)

	// The durability volume is shared, so any node's answer covers the
	// cluster — but take the union anyway in case a deployment gives each
	// node its own root.
	durable := map[string]bool{}
	for _, n := range healthy {
		ds, err := g.nodeDurable(ctx, n.URL)
		if err != nil {
			g.cfg.Logf("cluster: reconcile: durable on %s: %v", n.Name, err)
			continue
		}
		for _, s := range ds {
			durable[s] = true
		}
	}
	live := map[string][]string{} // node name -> live sessions
	all := map[string]bool{}
	for s := range durable {
		all[s] = true
	}
	for _, n := range healthy {
		ls, err := g.nodeSessions(ctx, n.URL)
		if err != nil {
			g.cfg.Logf("cluster: reconcile: sessions on %s: %v", n.Name, err)
			continue
		}
		live[n.Name] = ls
		for _, s := range ls {
			all[s] = true
		}
	}

	// The move set, against the candidate ring.
	type move struct {
		session, owner string
		misplaced      []string // nodes to release the session on, sorted
		ownerLive      bool
	}
	sessions := make([]string, 0, len(all))
	for s := range all {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	var moves []move
	pending := map[string]bool{}
	for _, s := range sessions {
		m := move{session: s, owner: ring.Owner(s)}
		m.ownerLive = contains(live[m.owner], s)
		for node, ls := range live {
			if node != m.owner && contains(ls, s) {
				m.misplaced = append(m.misplaced, node)
			}
		}
		if len(m.misplaced) == 0 && (m.ownerLive || !durable[s]) {
			continue // already converged (or nothing replayable to move)
		}
		// Only durable sessions can move: releasing a non-durable session
		// would destroy the sole copy of its state. Leave it where it is
		// and log — a cluster node should always run with durability on.
		if !durable[s] {
			g.cfg.Logf("cluster: session %q live on %v but owned by %s and not durable; leaving in place", s, m.misplaced, m.owner)
			continue
		}
		sort.Strings(m.misplaced)
		moves = append(moves, m)
		pending[s] = true
	}

	// One publication: a request routed after this point sees the new ring
	// and every displaced session pending, never one without the other. The
	// pending set is replaced, not merged — a move that failed last pass is
	// pending again only if this pass still finds it unconverged.
	g.mu.Lock()
	membershipChanged = !slices.Equal(g.ring.Nodes(), ring.Nodes())
	g.ring = ring
	g.nodeURL = urls
	g.pending = pending
	g.mu.Unlock()

	for _, m := range moves {
		s, ok := m.session, true
		for _, node := range m.misplaced {
			if err := g.postJSON(ctx, urls[node]+"/v1/node/sessions/"+url.PathEscape(s)+"/release", nil); err != nil {
				g.cfg.Logf("cluster: release %q on %s: %v", s, node, err)
				ok = false
			} else {
				g.cfg.Logf("cluster: released %q on %s (owner is %s)", s, node, m.owner)
			}
		}
		if ok && !m.ownerLive {
			if err := g.postJSON(ctx, urls[m.owner]+"/v1/node/sessions/"+url.PathEscape(s)+"/recover", nil); err != nil {
				g.cfg.Logf("cluster: recover %q on %s: %v", s, m.owner, err)
				ok = false
			} else {
				g.cfg.Logf("cluster: recovered %q on %s by WAL replay", s, m.owner)
			}
		}
		if ok {
			g.mu.Lock()
			delete(g.pending, s)
			g.mu.Unlock()
		}
		// On failure the session stays pending: the router keeps answering
		// retryable 503s and the next Run tick retries the move.
	}
	return membershipChanged
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
