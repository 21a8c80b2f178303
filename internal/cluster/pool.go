package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/client"
)

// PoolConfig shapes failure detection. The defaults (1s probe interval,
// down after 3 consecutive failures, up after 1 success) bound the
// detection window to roughly Interval*FailAfter ≈ 3s: a killed node's
// sessions are routable on a survivor within a few seconds, which is the
// window the cluster e2e asserts.
type PoolConfig struct {
	// Interval between health-check rounds (0 = 1s).
	Interval time.Duration
	// Timeout for a single /v1/healthz probe (0 = 2s).
	Timeout time.Duration
	// FailAfter is how many consecutive probe failures mark a node down
	// (0 = 3). Higher values trade detection latency for tolerance of
	// transient blips.
	FailAfter int
	// UpAfter is how many consecutive successes bring a down node back
	// (0 = 1). Raise it to damp flapping.
	UpAfter int
	// Logf receives membership transitions (nil = silent).
	Logf func(format string, args ...interface{})
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

type member struct {
	url      string
	name     string
	healthy  bool
	everUp   bool
	fails    int
	oks      int
	sessions int
	lastErr  string
}

// Pool tracks a fixed set of craqrd nodes by probing /v1/healthz. It is
// the failure detector only — it never touches the ring; the Gateway
// rebuilds its ring from the pool's healthy set after each check round.
type Pool struct {
	cfg  PoolConfig
	http *http.Client // probes (nil = http.DefaultClient); a Gateway sets its own

	mu      sync.Mutex
	members []*member // fixed, ordered by URL
}

// NewPool builds a pool over the given craqrd base URLs (e.g.
// "http://127.0.0.1:8081"). All members start down until their first
// successful probe, so a fresh gateway routes nothing until it has seen
// the pool.
func NewPool(urls []string, cfg PoolConfig) *Pool {
	p := &Pool{cfg: cfg.withDefaults()}
	seen := map[string]bool{}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		p.members = append(p.members, &member{url: u, name: u})
	}
	sort.Slice(p.members, func(i, j int) bool { return p.members[i].url < p.members[j].url })
	return p
}

func (p *Pool) probe(ctx context.Context, url string) (client.Health, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	h, err := (&client.Client{BaseURL: url, HTTPClient: p.http}).Health(ctx)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("healthz: status %q", h.Status)
	}
	return h, err
}

// CheckNow runs one synchronous health-check round over every member and
// reports whether the healthy set changed. Tests and the gateway's
// startup path call it directly; Run calls it on a ticker.
func (p *Pool) CheckNow(ctx context.Context) (changed bool) {
	type result struct {
		m   *member
		h   client.Health
		err error
	}
	p.mu.Lock()
	members := append([]*member(nil), p.members...)
	p.mu.Unlock()

	results := make([]result, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			h, err := p.probe(ctx, m.url)
			results[i] = result{m: m, h: h, err: err}
		}(i, m)
	}
	wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range results {
		m := r.m
		if r.err != nil {
			m.fails++
			m.oks = 0
			m.lastErr = r.err.Error()
			if m.healthy && m.fails >= p.cfg.FailAfter {
				m.healthy = false
				changed = true
				p.cfg.Logf("cluster: node %s (%s) down after %d failed checks: %v", m.name, m.url, m.fails, r.err)
			}
			continue
		}
		m.oks++
		m.fails = 0
		m.lastErr = ""
		m.sessions = r.h.Sessions
		if r.h.Node != "" {
			m.name = r.h.Node
		}
		// A node that was never up comes up on its first success — there
		// is no flap history to damp. Recoveries wait for UpAfter.
		if !m.healthy && (m.oks >= p.cfg.UpAfter || !m.everUp) {
			m.healthy = true
			m.everUp = true
			changed = true
			p.cfg.Logf("cluster: node %s (%s) up", m.name, m.url)
		}
	}
	return changed
}

// Snapshot returns every member's entry of the cluster status, ordered by
// URL; Live and Owned are the gateway's to fill.
func (p *Pool) Snapshot() []client.ClusterNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]client.ClusterNode, len(p.members))
	for i, m := range p.members {
		out[i] = client.ClusterNode{Name: m.name, URL: m.url, Healthy: m.healthy, Sessions: m.sessions, LastError: m.lastErr}
	}
	return out
}

// Healthy returns the healthy members, ordered by URL.
func (p *Pool) Healthy() []client.ClusterNode {
	var out []client.ClusterNode
	for _, s := range p.Snapshot() {
		if s.Healthy {
			out = append(out, s)
		}
	}
	return out
}
