package server

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/client"
	"repro/internal/ingest"
)

// TenantLimits is a session's admission-control envelope (see
// client.TenantLimits, which declares it and its json tags). Limits are
// deliberately excluded from manifest-conflict checks: they gate what
// enters the engine, never how accepted data is processed.
type TenantLimits = client.TenantLimits

// RateLimitError is the typed refusal of tenant admission control — the
// engine-level carrier behind HTTP 429. RetryAfter is the accurate wait
// until the same request would be admitted (zero for quota refusals, which
// clear only when the tenant releases resources).
type RateLimitError struct {
	// Reason names the exhausted limit ("tuple rate", "queue bytes", …).
	Reason string
	// RetryAfter is how long the producer should wait before retrying.
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: rate limited (%s): retry after %s", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("server: over quota (%s)", e.Reason)
}

// retryAfterSeconds renders the error's wait as whole Retry-After seconds
// (minimum 1 — the header has one-second resolution and zero would invite
// an immediate, pointless retry).
func (e *RateLimitError) retryAfterSeconds() int {
	secs := int(math.Ceil(e.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// rateBuckets is a producer's pair of token buckets, one per ingest rate
// limit; either is nil when its rate is 0 (unlimited).
type rateBuckets struct {
	tuples *ingest.TokenBucket
	bytes  *ingest.TokenBucket
}

func newRateBuckets(tuplesPerSec, bytesPerSec float64) rateBuckets {
	var r rateBuckets
	if tuplesPerSec > 0 {
		r.tuples = ingest.NewTokenBucket(tuplesPerSec, nil)
	}
	if bytesPerSec > 0 {
		r.bytes = ingest.NewTokenBucket(bytesPerSec, nil)
	}
	return r
}

// admit takes from both buckets atomically: a batch is admitted only when
// the tuple and byte budgets both cover it, and a refusal consumes neither.
// A refusal carries the longer of the two waits and the reason naming the
// bucket that imposed it (tupleReason on a tie).
func (r rateBuckets) admit(tupleCount, byteCount int, tupleReason, byteReason string) *RateLimitError {
	var (
		wait   time.Duration
		reason string
	)
	if r.tuples != nil {
		if w := r.tuples.Peek(float64(tupleCount)); w > wait {
			wait, reason = w, tupleReason
		}
	}
	if r.bytes != nil {
		if w := r.bytes.Peek(float64(byteCount)); w > wait {
			wait, reason = w, byteReason
		}
	}
	if wait > 0 {
		return &RateLimitError{Reason: reason, RetryAfter: wait}
	}
	if r.tuples != nil {
		r.tuples.Take(float64(tupleCount))
	}
	if r.bytes != nil {
		r.bytes.Take(float64(byteCount))
	}
	return nil
}

// tenantLimiter enforces one session's TenantLimits. It is nil on engines
// without limits, keeping the unlimited path allocation- and lock-free.
type tenantLimiter struct {
	mu        sync.Mutex
	cfg       TenantLimits
	rate      rateBuckets
	throttled client.Throttled // refusals charged to the session, under mu
}

func newTenantLimiter(cfg TenantLimits) *tenantLimiter {
	if cfg == (TenantLimits{}) {
		return nil
	}
	return &tenantLimiter{cfg: cfg, rate: newRateBuckets(cfg.RateTuplesPerSec, cfg.RateBytesPerSec)}
}

// admitRate runs the session's token buckets on a batch, counting a refusal.
func (l *tenantLimiter) admitRate(tupleCount, byteCount int) *RateLimitError {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.rate.admit(tupleCount, byteCount, "tuple rate", "byte rate")
	if err != nil {
		l.throttled.Batches++
		l.throttled.Tuples += uint64(tupleCount)
	}
	return err
}

// noteQuota records a quota refusal on the ingest path.
func (l *tenantLimiter) noteQuota(tupleCount int) {
	l.mu.Lock()
	l.throttled.Batches++
	l.throttled.Tuples += uint64(tupleCount)
	l.mu.Unlock()
}

// noteQuery records a refused query submission.
func (l *tenantLimiter) noteQuery() {
	l.mu.Lock()
	l.throttled.Queries++
	l.mu.Unlock()
}

func (l *tenantLimiter) stats() client.Throttled {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.throttled
}

// AdmitIngest runs the session's ingest admission control for a batch of
// tupleCount tuples carried in byteCount request bytes: hard quotas first
// (queue bytes, WAL bytes — refusing them costs no rate tokens), then the
// token buckets. A nil return admits the batch; a *RateLimitError refusal
// maps to HTTP 429 with Retry-After at the gateway. Engines without limits
// return nil immediately.
//
// Admission runs at the gateway boundary only — internal callers
// (PushObservations, WAL replay) bypass it, so recovery re-derives exactly
// the accepted history regardless of what limits were configured when.
func (e *Engine) AdmitIngest(tupleCount, byteCount int) error {
	l := e.limiter
	if l == nil {
		return nil
	}
	if max := l.cfg.MaxQueueBytes; max > 0 {
		pending := int64(e.IngestStats().Pending)
		if (pending+int64(tupleCount))*ingest.TupleMemBytes > max {
			l.noteQuota(tupleCount)
			return &RateLimitError{Reason: "queue bytes"}
		}
	}
	if max := l.cfg.MaxWALBytes; max > 0 && e.dur != nil {
		if e.Durability().WALBytes >= max {
			l.noteQuota(tupleCount)
			return &RateLimitError{Reason: "wal bytes"}
		}
	}
	if err := l.admitRate(tupleCount, byteCount); err != nil {
		return err
	}
	return nil
}

// admitQuery enforces the resident-query quota on Submit.
func (e *Engine) admitQuery() error {
	l := e.limiter
	if l == nil || l.cfg.MaxQueries <= 0 {
		return nil
	}
	e.mu.Lock()
	resident := len(e.results)
	e.mu.Unlock()
	if resident >= l.cfg.MaxQueries {
		l.noteQuery()
		return &RateLimitError{Reason: fmt.Sprintf("resident queries (max %d)", l.cfg.MaxQueries)}
	}
	return nil
}

// Limits returns the session's configured tenant limits (zero when none).
func (e *Engine) Limits() TenantLimits {
	if e.limiter == nil {
		return TenantLimits{}
	}
	return e.limiter.cfg
}

// GatewayLimits is the HTTP server's cross-session admission envelope:
// token-bucket rates applied per producer token (the X-CrAQR-Token header,
// or a Bearer credential), so one producer identity is bounded even when it
// spreads load across many sessions. Zero fields mean unlimited.
type GatewayLimits struct {
	// RateTuplesPerSec caps each token's sustained tuple rate.
	RateTuplesPerSec float64
	// RateBytesPerSec caps each token's sustained payload-byte rate.
	RateBytesPerSec float64
}

func (g GatewayLimits) enabled() bool {
	return g.RateTuplesPerSec > 0 || g.RateBytesPerSec > 0
}

// defaultMaxTokens bounds the gateway's token-bucket table; beyond it the
// least-recently-seen token's buckets are recycled.
const defaultMaxTokens = 4096

type tokenEntry struct {
	rateBuckets
	lastSeen time.Time
}

// gatewayLimiter applies GatewayLimits. Unknown producers (no token header)
// are not per-token limited — per-session limits still apply to them.
type gatewayLimiter struct {
	mu       sync.Mutex
	cfg      GatewayLimits
	perToken map[string]*tokenEntry
}

func newGatewayLimiter(cfg GatewayLimits) *gatewayLimiter {
	if !cfg.enabled() {
		return nil
	}
	return &gatewayLimiter{cfg: cfg, perToken: make(map[string]*tokenEntry)}
}

// admit checks one producer token's buckets; empty tokens pass.
func (g *gatewayLimiter) admit(token string, tupleCount, byteCount int) *RateLimitError {
	if g == nil || token == "" {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ent := g.perToken[token]
	if ent == nil {
		if len(g.perToken) >= defaultMaxTokens {
			g.evictOldestLocked()
		}
		ent = &tokenEntry{rateBuckets: newRateBuckets(g.cfg.RateTuplesPerSec, g.cfg.RateBytesPerSec)}
		g.perToken[token] = ent
	}
	ent.lastSeen = time.Now()
	return ent.admit(tupleCount, byteCount, "token tuple rate", "token byte rate")
}

// evictOldestLocked recycles the least-recently-seen token's entry.
func (g *gatewayLimiter) evictOldestLocked() {
	var (
		oldest string
		at     time.Time
		first  = true
	)
	for tok, ent := range g.perToken {
		if first || ent.lastSeen.Before(at) {
			oldest, at, first = tok, ent.lastSeen, false
		}
	}
	if oldest != "" {
		delete(g.perToken, oldest)
	}
}
