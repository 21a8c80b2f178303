// Package client is the typed Go client for the craqrd HTTP API: session
// CRUD, CrAQL submission, observation ingest (unary and streaming), epoch
// stepping, and result delivery (cursor pages and ndjson streaming). It
// speaks only the public wire protocol (docs/API.md) — no engine internals
// beyond internal/wire, which IS the ingest wire protocol (both ends share
// one codec) — so an external producer/consumer pair is a few dozen lines:
//
//	c := client.New("http://localhost:8080")
//	_, _ = c.CreateSession(ctx, client.SessionSpec{Name: "bridge", Source: "mixed"})
//	q, _ := c.Submit(ctx, "bridge", "ACQUIRE co2 FROM RECT(0,0,8,8) RATE 10")
//	rs, _ := c.StreamResults(ctx, "bridge", q.ID, 0)
//	go func() { for { tp, err := rs.Next(); if err != nil { return }; use(tp) } }()
//	ack, _ := c.Ingest(ctx, "bridge", client.Batch{Attr: "co2", Observations: obss})
//
// See examples/bridgefeed for the full loop.
//
// The body types here (Session, SessionSpec, TenantLimits, Status, Query,
// StepResult, Health, Ack, ResultPage, Tuple, ErrorBody, the cluster's
// ClusterStatus, and the node routes' DurableSessions, Recovered and
// Released) are the Go declaration of docs/API.md's v1 bodies: craqrd and
// the cluster gateway render and decode these same types, so a field renamed
// here is renamed on the wire. The gateway reaches its nodes through Client.
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Client talks to one craqrd server. The zero HTTPClient means
// http.DefaultClient. Client is safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Retry governs automatic retry of retryable ingest failures (503 from
	// a server that is restarting or destroying the session). The zero
	// value retries with the defaults; set MaxAttempts to 1 to disable.
	Retry RetryPolicy
	// Codec selects the ingest framing: "" negotiates (the compact binary
	// framing when the server advertises it, JSON otherwise), "json" and
	// "binary" force one. Negotiation probes GET /v1/healthz once and
	// caches the answer.
	Codec string
	// Compression names the Content-Encoding for unary ingest and script
	// bodies: "" sends identity, "gzip" compresses. Streaming pushes are
	// sent uncompressed.
	Compression string
	// Token is the producer identity sent as X-CrAQR-Token on every
	// request; servers running with per-token gateway limits meter each
	// token's ingest rate across sessions. Empty sends no header.
	Token string

	capMu sync.Mutex
	caps  *Capabilities
}

// Ingest codec names accepted by Client.Codec.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

// APIError is a non-2xx response decoded from the server's {"error": …}
// envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when absent). A
	// 503 with RetryAfter means the condition is transient — e.g. craqrd
	// is shutting down for a restart — and the request can be retried
	// without risking a double-apply (the batch was not acked).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("craqrd: %d: %s", e.StatusCode, e.Message)
}

// RetryPolicy shapes the exponential backoff used by Ingest and
// AssertWatermark when the server answers 503 (ingest queue closed,
// typically a restart in progress). Delays start at BaseDelay, double per
// attempt, are capped at MaxDelay and carry ±25% jitter so a producer
// fleet does not reconnect in lockstep; the post-jitter delay never
// undercuts the server's Retry-After hint (which may exceed MaxDelay).
// Sleeps abort immediately when ctx is done.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (0 = DefaultRetryAttempts, 1 = no
	// retries).
	MaxAttempts int
	// BaseDelay is the first backoff (0 = DefaultRetryBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = DefaultRetryMaxDelay).
	MaxDelay time.Duration
}

// Retry defaults: 5 attempts spanning roughly 100ms+200ms+400ms+800ms ≈
// 1.5s of patience — enough to ride out a craqrd restart, short enough
// that a dead server fails fast.
const (
	DefaultRetryAttempts  = 5
	DefaultRetryBaseDelay = 100 * time.Millisecond
	DefaultRetryMaxDelay  = 2 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMaxDelay
	}
	return p
}

// retryable reports whether err is a transient server condition worth
// retrying: 503 (ingest queue closed mid-restart, or a cluster gateway
// holding a session mid-handoff), 429 (admission control throttled the
// push — Retry-After says when the token bucket refills), and 421 (a
// cluster node refusing a request routed on a stale ring; the gateway
// converges within its failure-detection window). All refuse before any
// state change, so a retry cannot double-apply.
func retryable(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) &&
		(apiErr.StatusCode == http.StatusServiceUnavailable ||
			apiErr.StatusCode == http.StatusTooManyRequests ||
			apiErr.StatusCode == http.StatusMisdirectedRequest)
}

// backoffDelay computes the attempt-th delay (0-based): exponential from
// BaseDelay, capped at MaxDelay, with ±25% jitter — then floored at the
// server's Retry-After hint, which the jitter never undercuts (a hint
// above MaxDelay wins over the cap: the server knows when it will be back).
func (p RetryPolicy) backoffDelay(attempt int, err error) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || d > p.MaxDelay { // <<-overflow or cap
		d = p.MaxDelay
	}
	d = d*3/4 + time.Duration(rand.Int63n(int64(d)/2+1)) // ±25% jitter
	var apiErr *APIError
	if errors.As(err, &apiErr) && d < apiErr.RetryAfter {
		d = apiErr.RetryAfter
	}
	return d
}

// withRetry runs op under the client's retry policy: transient (503)
// failures back off and retry; everything else — and context cancellation
// mid-sleep — returns immediately.
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	policy := c.Retry.withDefaults()
	var err error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if err = op(); err == nil || !retryable(err) {
			return err
		}
		if attempt == policy.MaxAttempts-1 {
			break
		}
		timer := time.NewTimer(policy.backoffDelay(attempt, err))
		select {
		case <-ctx.Done():
			timer.Stop()
			return errors.Join(ctx.Err(), err)
		case <-timer.C:
		}
	}
	return err
}

// send is the one place the client issues a request: it sets Content-Type
// and Content-Encoding (each when non-empty) and the producer token, and
// turns a status ≥ 300 into an *APIError. The caller closes the returned
// body.
func (c *Client) send(ctx context.Context, method, path, contentType, encoding string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	if c.Token != "" {
		req.Header.Set("X-CrAQR-Token", c.Token)
	}
	resp, err := cmp.Or(c.HTTPClient, http.DefaultClient).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// do sends one request and decodes the JSON response into out (nil
// discards it).
func (c *Client) do(ctx context.Context, method, path, contentType, encoding string, body io.Reader, out interface{}) error {
	resp, err := c.send(ctx, method, path, contentType, encoding, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ErrorBody is the {"error": …} envelope of every non-2xx answer from a
// node or a gateway.
type ErrorBody struct {
	Error string `json:"error"`
}

func decodeError(resp *http.Response) error {
	var envelope ErrorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &envelope) != nil || envelope.Error == "" {
		envelope.Error = strings.TrimSpace(string(data))
		if envelope.Error == "" {
			envelope.Error = resp.Status
		}
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: envelope.Error}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	return c.do(ctx, method, path, "application/json", "", body, out)
}

// --- capabilities -----------------------------------------------------------

// Health is the GET /v1/healthz body of a craqrd node or a cluster gateway.
// Fields are declared in JSON-key order, the order the body has always had.
type Health struct {
	Ingest Capabilities `json:"ingest"`
	// Node is a cluster node's advertised name (absent on a standalone
	// daemon and on a gateway).
	Node string `json:"node,omitempty"`
	// Nodes counts a gateway's pool members: {"healthy": h, "total": n}.
	Nodes map[string]int `json:"nodes,omitempty"`
	// Role is "gateway" on a cluster gateway, absent on a node.
	Role     string `json:"role,omitempty"`
	Sessions int    `json:"sessions"`
	// Status is "ok", or "degraded" on a gateway with a node down.
	Status string `json:"status"`
}

// Capabilities is the gateway's ingest capability advertisement (from
// GET /v1/healthz): the Content-Types its ingest route decodes and the
// Content-Encodings it inflates.
type Capabilities struct {
	Codecs    []string `json:"codecs"`
	Encodings []string `json:"encodings"`
}

// SupportsCodec reports whether the server decodes the given ingest
// Content-Type.
func (c Capabilities) SupportsCodec(contentType string) bool {
	return slices.Contains(c.Codecs, contentType)
}

// Health fetches the server's GET /v1/healthz body.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.doJSON(ctx, "GET", "/v1/healthz", nil, &out)
	return out, err
}

// Capabilities probes the server's ingest capabilities, caching the first
// successful answer for the client's lifetime.
func (c *Client) Capabilities(ctx context.Context) (Capabilities, error) {
	c.capMu.Lock()
	if c.caps != nil {
		caps := *c.caps
		c.capMu.Unlock()
		return caps, nil
	}
	c.capMu.Unlock()
	health, err := c.Health(ctx)
	if err != nil {
		return Capabilities{}, err
	}
	c.capMu.Lock()
	c.caps = &health.Ingest
	c.capMu.Unlock()
	return health.Ingest, nil
}

// ingestBinary resolves the codec choice for an ingest push: an explicit
// Codec wins; otherwise binary iff the server advertises it (a server too
// old to advertise — or unreachable for the probe — gets JSON, which every
// server speaks).
func (c *Client) ingestBinary(ctx context.Context) bool {
	switch c.Codec {
	case CodecBinary:
		return true
	case CodecJSON:
		return false
	}
	caps, err := c.Capabilities(ctx)
	return err == nil && caps.SupportsCodec(wire.ContentTypeBinary)
}

// --- sessions ---------------------------------------------------------------

// SessionSpec creates a session; every field is optional (see docs/API.md,
// POST /v1/sessions).
type SessionSpec struct {
	Name      string `json:"name,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Retention int    `json:"retention,omitempty"`
	// Tick is the wall-clock epoch interval ("200ms"); empty means manual
	// stepping unless Simulated runs epochs back-to-back.
	Tick      string `json:"tick,omitempty"`
	Simulated bool   `json:"simulated,omitempty"`
	Pinned    bool   `json:"pinned,omitempty"`
	// Source selects the observation source composition: "simulated",
	// "external" or "mixed"; external and mixed sessions accept Ingest.
	Source string `json:"source,omitempty"`
	// IngestBuffer bounds the ingest queue in tuples; Tolerance is the
	// event-time out-of-order slack; LatePolicy is "drop" or "next".
	IngestBuffer int     `json:"ingestBuffer,omitempty"`
	Tolerance    float64 `json:"tolerance,omitempty"`
	LatePolicy   string  `json:"latePolicy,omitempty"`
	// AdaptiveRates turns the rate-retune feedback loop on or off for this
	// session; nil inherits the server's -budget setting.
	AdaptiveRates *bool `json:"adaptiveRates,omitempty"`
	// Durability knobs (effective only when craqrd runs with -data-dir).
	// DisableDurability opts this session out of WAL + snapshots;
	// SnapshotEvery overrides the snapshot cadence in epochs; FsyncPolicy
	// is "always", "batch" or "never".
	DisableDurability bool   `json:"disableDurability,omitempty"`
	SnapshotEvery     int    `json:"snapshotEvery,omitempty"`
	FsyncPolicy       string `json:"fsyncPolicy,omitempty"`
	// Tenant protection (see docs/API.md, "Tenant limits"): Weight is the
	// session's fair-share weight under epoch contention (0 = default 1);
	// Limits is the admission-control envelope (nil = unlimited).
	Weight float64       `json:"weight,omitempty"`
	Limits *TenantLimits `json:"limits,omitempty"`
}

// TenantLimits is a session's admission-control envelope: token-bucket rate
// limits on the ingest path plus hard quotas on resident state. Every field
// is off by default — zero means unlimited. A session over a rate limit
// answers ingest with 429 + Retry-After, which Ingest retries under the
// RetryPolicy. Limits are enforcement-time only: they gate what enters the
// engine, never how accepted data is processed, so they have no effect on
// replay.
type TenantLimits struct {
	// RateTuplesPerSec caps the session's sustained ingest rate in tuples
	// per second (burst: one second's worth).
	RateTuplesPerSec float64 `json:"rateTuplesPerSec,omitempty"`
	// RateBytesPerSec caps the session's sustained ingest rate in request
	// payload bytes per second (burst: one second's worth).
	RateBytesPerSec float64 `json:"rateBytesPerSec,omitempty"`
	// MaxQueries caps resident queries (Submit fails with 429 once reached).
	MaxQueries int `json:"maxQueries,omitempty"`
	// MaxQueueBytes caps the ingest queue's resident size, accounted as
	// pending tuples × 96 bytes.
	MaxQueueBytes int64 `json:"maxQueueBytes,omitempty"`
	// MaxWALBytes caps the session's write-ahead log size on disk; pushes
	// are refused once the log reaches it (snapshots truncate the log and
	// release the quota).
	MaxWALBytes int64 `json:"maxWALBytes,omitempty"`
}

// Validate rejects negative limit values (zero means unlimited, so there is
// no meaningful negative).
func (l TenantLimits) Validate() error {
	if l.RateTuplesPerSec < 0 || l.RateBytesPerSec < 0 ||
		l.MaxQueries < 0 || l.MaxQueueBytes < 0 || l.MaxWALBytes < 0 {
		return fmt.Errorf("server: tenant limits must be non-negative: %+v", l)
	}
	return nil
}

// Session is the server's session object. The ingest counters are lifetime
// tuple counts (see docs/API.md, "Ingest accounting"); Watermark is the
// event-time low watermark in simulation time units, nil until the session
// has seen any pushed event time or watermark assertion.
type Session struct {
	Name          string   `json:"name"`
	Created       string   `json:"created"`
	Running       bool     `json:"running"`
	ClockError    string   `json:"clockError,omitempty"`
	Pinned        bool     `json:"pinned"`
	Simulated     bool     `json:"simulated"`
	Tick          string   `json:"tick,omitempty"`
	Retention     int      `json:"retention,omitempty"`
	Seed          int64    `json:"seed,omitempty"`
	Epochs        int      `json:"epochs"`
	Now           float64  `json:"now"`
	Queries       int      `json:"queries"`
	Adaptive      bool     `json:"adaptive"`
	Source        string   `json:"source"`
	Ingested      uint64   `json:"ingested"`
	IngestDropped uint64   `json:"ingestDropped"`
	LateDropped   uint64   `json:"lateDropped"`
	Watermark     *float64 `json:"watermark"`
	// Tenant protection (see docs/API.md, "Tenant limits"): the session's
	// fair-share weight (0 = default 1) and its admission-control envelope,
	// present only when any limit is configured.
	Weight float64       `json:"weight,omitempty"`
	Limits *TenantLimits `json:"limits,omitempty"`
	// Durability (see docs/API.md, "Durability"): present only on durable
	// sessions — the WAL fsync policy, snapshot cadence and size counters,
	// plus whether this process recovered the session from disk.
	Durable           bool   `json:"durable,omitempty"`
	Fsync             string `json:"fsync,omitempty"`
	SnapshotEvery     int    `json:"snapshotEvery,omitempty"`
	LastSnapshotEpoch int    `json:"lastSnapshotEpoch,omitempty"`
	WALBytes          int64  `json:"walBytes,omitempty"`
	WALSegments       int    `json:"walSegments,omitempty"`
	Recovered         bool   `json:"recovered,omitempty"`
}

// CreateSession creates a session.
func (c *Client) CreateSession(ctx context.Context, spec SessionSpec) (Session, error) {
	var out Session
	err := c.doJSON(ctx, "POST", "/v1/sessions", spec, &out)
	return out, err
}

// Session fetches one session.
func (c *Client) Session(ctx context.Context, name string) (Session, error) {
	var out Session
	err := c.doJSON(ctx, "GET", "/v1/sessions/"+url.PathEscape(name), nil, &out)
	return out, err
}

// Sessions lists every session, sorted by name.
func (c *Client) Sessions(ctx context.Context) ([]Session, error) {
	var out []Session
	err := c.doJSON(ctx, "GET", "/v1/sessions", nil, &out)
	return out, err
}

// DestroySession destroys a session, draining its engine.
func (c *Client) DestroySession(ctx context.Context, name string) error {
	return c.doJSON(ctx, "DELETE", "/v1/sessions/"+url.PathEscape(name), nil, nil)
}

// Status is the GET /v1/sessions/{s}/status body (docs/API.md): the
// engine's clock, topology and sharing, the budget and adaptivity feedback
// loop, ingest accounting, tenant protection and durability. Fields are
// declared in JSON-key order, the order the body has always had.
type Status struct {
	Adaptive bool `json:"adaptive"`
	// AdaptiveSlots is null while adaptive rates are off, and until an
	// epoch has registered a slot.
	AdaptiveSlots    []AdaptiveSlot `json:"adaptiveSlots"`
	Budgets          []Budget       `json:"budgets"`
	ClockError       string         `json:"clockError"`
	Durability       *Durability    `json:"durability"` // null when not durable
	Epochs           int            `json:"epochs"`
	FitIterations    uint64         `json:"fitIterations"`
	FitsNotConverged uint64         `json:"fitsNotConverged"`
	IngestDropped    uint64         `json:"ingestDropped"`
	IngestDuplicates uint64         `json:"ingestDuplicates"`
	IngestLate       uint64         `json:"ingestLate"`
	IngestPending    int            `json:"ingestPending"`
	IngestRejected   uint64         `json:"ingestRejected"`
	Ingested         uint64         `json:"ingested"`
	LateDropped      uint64         `json:"lateDropped"`
	Limits           *TenantLimits  `json:"limits"` // null when unlimited
	MeanNv           float64        `json:"meanNv"`
	Now              float64        `json:"now"`
	Operators        map[string]int `json:"operators"`
	Pipelines        int            `json:"pipelines"`
	Queries          int            `json:"queries"`
	Requests         uint64         `json:"requests"`
	Responses        uint64         `json:"responses"`
	ResultRings      int            `json:"resultRings"`
	RetentionDrops   uint64         `json:"retentionDrops"`
	Running          bool           `json:"running"`
	Sched            Sched          `json:"sched"`
	Session          string         `json:"session"`
	SharedAttaches   uint64         `json:"sharedAttaches"`
	SharedPrefixes   int            `json:"sharedPrefixes"`
	SharedQueries    int            `json:"sharedQueries"`
	Source           string         `json:"source"`
	Subplans         int            `json:"subplans"`
	Throttled        Throttled      `json:"throttled"`
	// Topology.Program is what the compiled epoch programs run.
	Topology struct {
		Program Program `json:"program"`
	} `json:"topology"`
	// Watermark is the event-time low watermark, null until the session has
	// seen a pushed event time or watermark assertion.
	Watermark *float64 `json:"watermark"`
	Workers   int      `json:"workers"`
}

// AdaptiveSlot is one cell's rate-retune state: its current rate scale in
// (0, 1], latest normalized violation (percent) and infeasibility flag.
type AdaptiveSlot struct {
	Attr       string  `json:"attr"`
	Q          int     `json:"q"`
	R          int     `json:"r"`
	Scale      float64 `json:"scale"`
	LastNv     float64 `json:"lastNv"`
	Infeasible bool    `json:"infeasible"`
}

// Budget is one cell's acquisition budget and the violation it last saw.
type Budget struct {
	Attr       string  `json:"attr"`
	Q          int     `json:"q"`
	R          int     `json:"r"`
	Budget     float64 `json:"budget"`
	LastNv     float64 `json:"lastNv"`
	Infeasible bool    `json:"infeasible"`
}

// Durability is a durable session's WAL and snapshot state (docs/API.md,
// "Durability"). LastSnapshotEpoch is the epoch count of the newest
// snapshot written or restored (0 = none). Recovered reports that the
// engine restored prior state, replaying ReplayedRecords WAL records after
// the snapshot it restored; SnapshotVerified that it restored the older of
// two snapshots and replayed to a state byte-identical to the newer one;
// TornTail that it truncated a torn tail. WALBytes and WALSegments size the
// retained log; WALRecords is its position, deleted segments included.
type Durability struct {
	Fsync             string `json:"fsync"` // "batch", "always" or "never"
	LastSnapshotEpoch int    `json:"lastSnapshotEpoch"`
	Recovered         bool   `json:"recovered"`
	ReplayedRecords   int    `json:"replayedRecords"`
	SnapshotEvery     int    `json:"snapshotEvery"` // cadence in epochs
	SnapshotVerified  bool   `json:"snapshotVerified"`
	TornTail          bool   `json:"tornTail"`
	WALBytes          int64  `json:"walBytes"`
	WALRecords        uint64 `json:"walRecords"`
	WALSegments       int    `json:"walSegments"`
}

// Sched is the fair scheduler's accounting of one session: epochs granted,
// slot-wait latency (percentiles over the most recent epochs) and weight.
type Sched struct {
	EpochsServed uint64  `json:"epochsServed"`
	MaxWaitMs    float64 `json:"maxWaitMs"`
	P50WaitMs    float64 `json:"p50WaitMs"`
	P99WaitMs    float64 `json:"p99WaitMs"`
	TotalWaitMs  float64 `json:"totalWaitMs"`
	Weight       float64 `json:"weight"`
}

// Throttled counts a session's admission-control refusals: ingest batches
// and the tuples they carried, and query submissions.
type Throttled struct {
	Batches uint64 `json:"batches"`
	Queries uint64 `json:"queries"`
	Tuples  uint64 `json:"tuples"`
}

// Program is what the compiled epoch programs run per epoch — merge phases
// (subplans) and the position lists they read (sources) — and how many
// compilations the session has paid for.
type Program struct {
	Compiles uint64 `json:"compiles"`
	Sources  int    `json:"sources"`
	Subplans int    `json:"subplans"`
}

// Status fetches a session's status document, decoded into the declared
// Status (fields the server adds later are ignored, not an error).
func (c *Client) Status(ctx context.Context, session string) (Status, error) {
	var out Status
	err := c.doJSON(ctx, "GET", "/v1/sessions/"+url.PathEscape(session)+"/status", nil, &out)
	return out, err
}

// --- queries ----------------------------------------------------------------

// Query is a stored acquisitional query.
type Query struct {
	ID   string  `json:"id"`
	Attr string  `json:"attr"`
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
	Rate float64 `json:"rate"`
}

// Submit registers one CrAQL query ("ACQUIRE attr FROM RECT(…) RATE r").
func (c *Client) Submit(ctx context.Context, session, craql string) (Query, error) {
	var out Query
	err := c.do(ctx, "POST", "/v1/sessions/"+url.PathEscape(session)+"/queries",
		"text/plain", "", strings.NewReader(craql), &out)
	return out, err
}

// SubmitScript submits a ";"-separated CrAQL script atomically.
func (c *Client) SubmitScript(ctx context.Context, session, script string) ([]Query, error) {
	var out []Query
	err := c.do(ctx, "POST", "/v1/sessions/"+url.PathEscape(session)+"/script",
		"text/plain", "", strings.NewReader(script), &out)
	return out, err
}

// DeleteQuery removes a live query, ending its streams.
func (c *Client) DeleteQuery(ctx context.Context, session, id string) error {
	return c.doJSON(ctx, "DELETE",
		"/v1/sessions/"+url.PathEscape(session)+"/queries/"+url.PathEscape(id), nil, nil)
}

// --- epochs -----------------------------------------------------------------

// StepResult reports a manual step. Stepped < the requested n with Waiting
// set means the session's ingest watermark holds the next epoch open;
// Watermark (when the server knows one) tells the producer how far event
// time has come.
type StepResult struct {
	Epochs    int      `json:"epochs"`
	Now       float64  `json:"now"`
	Stepped   int      `json:"stepped"`
	Waiting   bool     `json:"waiting,omitempty"`
	Watermark *float64 `json:"watermark,omitempty"`
}

// Step advances a session by up to n epochs (n ≤ 0 means 1).
func (c *Client) Step(ctx context.Context, session string, n int) (StepResult, error) {
	if n <= 0 {
		n = 1
	}
	var out StepResult
	err := c.doJSON(ctx, "POST",
		fmt.Sprintf("/v1/sessions/%s/step?n=%d", url.PathEscape(session), n), nil, &out)
	return out, err
}

// --- ingest -----------------------------------------------------------------

// Observation is one externally produced measurement. T is the event time
// in the session's simulation time units. Leave ID zero for a
// gateway-assigned one; supply stable IDs when replaying the same
// observations must reproduce the same acquired stream.
type Observation struct {
	ID     uint64  `json:"id,omitempty"`
	Attr   string  `json:"attr,omitempty"`
	T      float64 `json:"t"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Value  float64 `json:"value"`
	Sensor *int    `json:"sensor,omitempty"`
}

// Batch is one ingest push: observations plus an optional watermark
// assertion ("no observation older than this will follow"). Attr is the
// default attribute for observations that carry none. A Batch with only a
// Watermark is the idle-producer heartbeat that lets epochs close.
type Batch struct {
	Attr         string        `json:"attr,omitempty"`
	Watermark    *float64      `json:"watermark,omitempty"`
	Observations []Observation `json:"observations,omitempty"`
}

// Ack accounts one pushed batch: every observation is accepted,
// overflow-dropped, late (redirected or dropped per the session's late
// policy) or rejected — never silently lost. Watermark is the post-push
// low watermark (nil unknown); Pending the queue backlog.
type Ack struct {
	Accepted    int      `json:"accepted"`
	Dropped     int      `json:"dropped"`
	Late        int      `json:"late"`
	LateDropped int      `json:"lateDropped"`
	Rejected    int      `json:"rejected"`
	Duplicates  int      `json:"duplicates"`
	Watermark   *float64 `json:"watermark"`
	Pending     int      `json:"pending"`
	Error       string   `json:"error,omitempty"`
}

// toWire converts a client batch to the shared codec representation (a
// nil Watermark becomes NaN, a nil Sensor −1 — the wire conventions).
func (b Batch) toWire() wire.Batch {
	wb := wire.Batch{Attr: b.Attr, Watermark: math.NaN()}
	if b.Watermark != nil {
		wb.Watermark = *b.Watermark
	}
	if len(b.Observations) > 0 {
		wb.Tuples = make([]stream.Tuple, 0, len(b.Observations))
	}
	for _, o := range b.Observations {
		sensor := -1
		if o.Sensor != nil {
			sensor = *o.Sensor
		}
		wb.Tuples = append(wb.Tuples, stream.Tuple{
			ID: o.ID, Attr: o.Attr, T: o.T, X: o.X, Y: o.Y, Value: o.Value, Sensor: sensor,
		})
	}
	return wb
}

// encodeIngestBody renders one batch in the chosen codec and applies the
// client's Compression, returning body bytes and the Content-Type /
// Content-Encoding headers to send.
func (c *Client) encodeIngestBody(ctx context.Context, b Batch) (body []byte, ctype, encoding string, err error) {
	if c.ingestBinary(ctx) {
		ctype = wire.ContentTypeBinary
		body, err = wire.AppendFrame(nil, b.toWire())
	} else {
		ctype = "application/json"
		body, err = json.Marshal(b)
	}
	if err != nil {
		return nil, "", "", err
	}
	switch c.Compression {
	case "":
	case "gzip":
		body, encoding = wire.AppendGzip(nil, body), "gzip"
	default:
		return nil, "", "", fmt.Errorf("craqrd: unsupported compression %q", c.Compression)
	}
	return body, ctype, encoding, nil
}

// Ingest pushes one observation batch into an external- or mixed-source
// session and returns its ack, using the densest codec the server speaks
// (see Client.Codec/Compression). A 503 (ingest queue closed — the server
// is restarting or the session is churning) is retried under the client's
// RetryPolicy with exponential backoff, honoring the server's Retry-After
// hint; an un-acked batch is never applied, so retries cannot duplicate
// observations.
func (c *Client) Ingest(ctx context.Context, session string, b Batch) (Ack, error) {
	body, ctype, encoding, err := c.encodeIngestBody(ctx, b)
	if err != nil {
		return Ack{}, err
	}
	path := "/v1/sessions/" + url.PathEscape(session) + "/ingest"
	var out Ack
	err = c.withRetry(ctx, func() error {
		out = Ack{}
		return c.do(ctx, "POST", path, ctype, encoding, bytes.NewReader(body), &out)
	})
	return out, err
}

// AssertWatermark pushes a data-less watermark assertion: no observation
// with an event time below wm will follow. Gated epochs up to wm may then
// close.
func (c *Client) AssertWatermark(ctx context.Context, session string, wm float64) (Ack, error) {
	return c.Ingest(ctx, session, Batch{Watermark: &wm})
}

// IngestStream is a long-lived push connection (ndjson lines or binary
// frames, whichever OpenIngest negotiated): Send writes one batch; Close
// ends the stream and returns the server's per-batch acks. Over HTTP/1.1
// the acks arrive only at Close (half-duplex); HTTP/2 transports deliver
// them live but Close still collects them all.
type IngestStream struct {
	w      *io.PipeWriter
	enc    *json.Encoder // JSON framing (nil when binary)
	frame  []byte        // reused binary frame scratch (nil when JSON)
	binary bool
	done   chan struct{}
	acks   []Ack
	ackErr error
}

// OpenIngest starts a streaming ingest push to a session, picking the
// compact binary framing when the server advertises it (Client.Codec
// overrides). The response is ndjson acks either way.
func (c *Client) OpenIngest(ctx context.Context, session string) (*IngestStream, error) {
	binary := c.ingestBinary(ctx)
	pr, pw := io.Pipe()
	st := &IngestStream{w: pw, binary: binary, done: make(chan struct{})}
	ctype := wire.ContentTypeBinary
	if !binary {
		ctype = "application/x-ndjson"
		st.enc = json.NewEncoder(pw)
	}
	path := "/v1/sessions/" + url.PathEscape(session) + "/ingest?stream=1"
	go func() {
		defer close(st.done)
		resp, err := c.send(ctx, "POST", path, ctype, "", pr)
		if err != nil {
			st.ackErr = err
			pr.CloseWithError(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		for sc.Scan() {
			var a Ack
			if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
				st.ackErr = err
				return
			}
			st.acks = append(st.acks, a)
			if a.Error != "" && st.ackErr == nil {
				st.ackErr = fmt.Errorf("craqrd: ingest: %s", a.Error)
			}
		}
		if err := sc.Err(); err != nil && st.ackErr == nil {
			st.ackErr = err
		}
	}()
	return st, nil
}

// Send writes one batch onto the stream (a JSON line or a binary frame).
// Send is not safe for concurrent use.
func (s *IngestStream) Send(b Batch) error {
	if !s.binary {
		return s.enc.Encode(b)
	}
	frame, err := wire.AppendFrame(s.frame[:0], b.toWire())
	if err != nil {
		return err
	}
	s.frame = frame
	_, err = s.w.Write(frame)
	return err
}

// Close ends the push stream and returns every ack the server produced (in
// batch order) plus the first error, if any — including the server's
// in-band error ack.
func (s *IngestStream) Close() ([]Ack, error) {
	s.w.Close()
	<-s.done
	return s.acks, s.ackErr
}

// --- results ----------------------------------------------------------------

// Tuple is one acquired stream tuple.
type Tuple struct {
	ID     uint64  `json:"id"`
	Attr   string  `json:"attr"`
	T      float64 `json:"t"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Value  float64 `json:"value"`
	Sensor int     `json:"sensor"`
}

// ResultPage is one cursor read of a query's bounded result store.
type ResultPage struct {
	Tuples     []Tuple `json:"tuples"`
	NextCursor uint64  `json:"nextCursor"`
	// Dropped counts tuples evicted before this reader reached them.
	Dropped   uint64 `json:"dropped"`
	Retained  int    `json:"retained"`
	Total     uint64 `json:"total"`
	Retention int    `json:"retention"`
}

// Results reads one page of a query's results from cursor (limit ≤ 0 means
// all retained). Resume from NextCursor.
func (c *Client) Results(ctx context.Context, session, query string, cursor uint64, limit int) (ResultPage, error) {
	path := fmt.Sprintf("/v1/sessions/%s/results/%s?cursor=%d",
		url.PathEscape(session), url.PathEscape(query), cursor)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var out ResultPage
	err := c.doJSON(ctx, "GET", path, nil, &out)
	return out, err
}

// ResultStream is a live ndjson subscription to a query's stream. Next
// blocks until the next tuple is fabricated; it returns io.EOF when the
// query or session is deleted and ctx's error when the caller cancels.
//
// The stream tracks its cursor (start + tuples delivered + tuples the
// server reported dropped), so when the connection ends unexpectedly —
// the owning node died, or a cluster gateway handed the session to a new
// node mid-stream — Next transparently reconnects from that cursor under
// the client's RetryPolicy and resumes without dropping or duplicating a
// tuple. A 404 on reconnect means the query or session is genuinely gone:
// Next reports the clean io.EOF it always has.
type ResultStream struct {
	c       *Client
	ctx     context.Context
	session string
	query   string
	cursor  uint64
	body    io.ReadCloser
	sc      *bufio.Scanner
	dropped uint64
	closed  atomic.Bool
}

// StreamResults opens a push subscription from cursor (0 = the oldest
// retained tuple). Cancel ctx to end it. A retryable open failure (503
// while a cluster gateway converges a handoff) backs off under the
// client's RetryPolicy before giving up.
func (c *Client) StreamResults(ctx context.Context, session, query string, cursor uint64) (*ResultStream, error) {
	s := &ResultStream{c: c, ctx: ctx, session: session, query: query, cursor: cursor}
	if err := c.withRetry(ctx, s.connect); err != nil {
		return nil, err
	}
	return s, nil
}

// connect (re)opens the subscription at the stream's current cursor.
func (s *ResultStream) connect() error {
	path := fmt.Sprintf("/v1/sessions/%s/results/%s/stream?cursor=%d",
		url.PathEscape(s.session), url.PathEscape(s.query), s.cursor)
	resp, err := s.c.send(s.ctx, "GET", path, "", "", nil)
	if err != nil {
		return err
	}
	s.body = resp.Body
	s.sc = bufio.NewScanner(resp.Body)
	s.sc.Buffer(make([]byte, 64<<10), 8<<20)
	s.sc.Split(scanWholeLines)
	return nil
}

// scanWholeLines is bufio.ScanLines minus its end-of-input rule: a final
// fragment with no newline is discarded, not returned. The server ends
// every ndjson record with '\n', so an unterminated tail is a record torn
// by a dying connection — parsing it would fail (or, worse, succeed on a
// truncated number); dropping it lets Next reconnect from the cursor and
// read the record whole.
func scanWholeLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	}
	if atEOF {
		return len(data), nil, nil
	}
	return 0, nil, nil
}

// Next returns the next tuple. Tuples evicted before delivery are counted
// in Dropped (the server reports them explicitly), never silently skipped.
// Next is not safe for concurrent use.
func (s *ResultStream) Next() (Tuple, error) {
	for {
		for s.sc.Scan() {
			line := s.sc.Bytes()
			var drop struct {
				Dropped *uint64 `json:"dropped"`
			}
			if err := json.Unmarshal(line, &drop); err == nil && drop.Dropped != nil {
				s.dropped += *drop.Dropped
				s.cursor += *drop.Dropped
				continue
			}
			var tp Tuple
			if err := json.Unmarshal(line, &tp); err != nil {
				return Tuple{}, err
			}
			s.cursor++
			return tp, nil
		}
		scanErr := s.sc.Err()
		if s.closed.Load() || s.ctx.Err() != nil {
			if scanErr != nil && s.ctx.Err() != nil {
				return Tuple{}, scanErr
			}
			return Tuple{}, io.EOF
		}
		// The connection ended under us. Resume from the cursor: during a
		// cluster handoff the gateway answers 503 until the new owner has
		// replayed the WAL, and withRetry rides that out.
		s.body.Close()
		if err := s.c.withRetry(s.ctx, s.connect); err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
				// Gone for real (query deleted, session destroyed): the
				// clean end of stream.
				return Tuple{}, io.EOF
			}
			if scanErr != nil {
				return Tuple{}, scanErr
			}
			return Tuple{}, err
		}
	}
}

// Dropped returns how many tuples the server evicted before this stream
// could deliver them.
func (s *ResultStream) Dropped() uint64 { return s.dropped }

// Cursor returns the stream position the next tuple will arrive at (and
// the position a reconnect resumes from).
func (s *ResultStream) Cursor() uint64 { return s.cursor }

// Close ends the subscription and disables reconnection.
func (s *ResultStream) Close() error {
	s.closed.Store(true)
	return s.body.Close()
}

// --- cluster ----------------------------------------------------------------

// ClusterStatus is a gateway's GET /v1/cluster/status body: the ring, each
// pool member's entry, the distinct live session count and the handoffs in
// flight. Fields are declared in JSON-key order, the order the body has
// always had.
type ClusterStatus struct {
	Nodes           []ClusterNode `json:"nodes"`
	PendingHandoffs []string      `json:"pendingHandoffs"`
	Ring            ClusterRing   `json:"ring"`
	Sessions        int           `json:"sessions"`
	// Status is "ok", or "degraded" while any node is down.
	Status string `json:"status"`
}

// ClusterRing is the consistent-hash ring a gateway routes by: its healthy
// members and the vnode multiplier.
type ClusterRing struct {
	Nodes  []string `json:"nodes"`
	VNodes int      `json:"vnodes"`
}

// ClusterNode is one pool member as a gateway sees it: the name it
// advertises on /v1/healthz (its URL until the first good probe), its
// configured URL, the failure detector's verdict, its session count at the
// last good probe and the latest probe failure (absent after a success).
// Live names the sessions it serves, sorted (absent when none or when it is
// down); Owned counts those the ring places on it.
type ClusterNode struct {
	Name      string   `json:"name"`
	URL       string   `json:"url"`
	Healthy   bool     `json:"healthy"`
	Sessions  int      `json:"sessions"`
	LastError string   `json:"lastError,omitempty"`
	Live      []string `json:"live,omitempty"`
	Owned     int      `json:"owned"`
}

// --- cluster node routes ------------------------------------------------------

// DurableSessions is a node's GET /v1/node/durable body: every session with
// durable state under its durability root, live or not.
type DurableSessions struct {
	Sessions []string `json:"sessions"`
}

// Recovered answers POST /v1/node/sessions/{s}/recover (false: already live).
type Recovered struct {
	Recovered bool   `json:"recovered"`
	Session   string `json:"session"`
}

// Released answers POST /v1/node/sessions/{s}/release.
type Released struct {
	Released bool   `json:"released"`
	Session  string `json:"session"`
}

// DurableSessions lists the sessions a cluster node has durable state of.
func (c *Client) DurableSessions(ctx context.Context) (DurableSessions, error) {
	var out DurableSessions
	err := c.doJSON(ctx, "GET", "/v1/node/durable", nil, &out)
	return out, err
}

// RecoverSession has a cluster node re-adopt a session by WAL replay.
func (c *Client) RecoverSession(ctx context.Context, name string) (Recovered, error) {
	var out Recovered
	err := c.doJSON(ctx, "POST", "/v1/node/sessions/"+url.PathEscape(name)+"/recover", nil, &out)
	return out, err
}

// ReleaseSession has a cluster node stop serving a session, keeping its WAL.
func (c *Client) ReleaseSession(ctx context.Context, name string) (Released, error) {
	var out Released
	err := c.doJSON(ctx, "POST", "/v1/node/sessions/"+url.PathEscape(name)+"/release", nil, &out)
	return out, err
}
