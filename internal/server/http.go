package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/craql"
	"repro/internal/export"
	"repro/internal/ingest"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// HTTPServer exposes a session Manager over JSON/HTTP. Sessions are
// independently clocked engines hosted by one process:
//
//	GET    /v1/healthz                                liveness + session count
//	POST   /v1/sessions                               create a session (JSON spec)
//	GET    /v1/sessions                               list sessions
//	GET    /v1/sessions/{s}                           session info
//	DELETE /v1/sessions/{s}                           destroy a session
//	GET    /v1/sessions/{s}/status                    engine status (epochs, now, drops, budgets, sharing)
//	POST   /v1/sessions/{s}/queries                   submit CrAQL text (EXPLAIN returns the plan table)
//	GET    /v1/sessions/{s}/queries                   list live queries
//	DELETE /v1/sessions/{s}/queries/{id}              delete a query
//	GET    /v1/sessions/{s}/queries/{id}/plan         EXPLAIN of a live query
//	POST   /v1/sessions/{s}/script                    submit a CrAQL script atomically
//	POST   /v1/sessions/{s}/step?n=k                  advance k epochs manually
//	GET    /v1/sessions/{s}/results/{q}?cursor=&limit=  paginated cursor read
//	GET    /v1/sessions/{s}/results/{q}/stream        push delivery (ndjson; ?sse=1 or
//	                                                  Accept: text/event-stream for SSE)
//
// Results are served from each query's bounded ResultStore: a cursor read
// returns the tuples at positions ≥ cursor still retained, the cursor to
// resume from, and an explicit count of tuples evicted before the reader
// arrived. Epoch serialization lives in Engine.Step; the HTTP layer adds no
// locking of its own.
type HTTPServer struct {
	manager  *Manager
	mux      *http.ServeMux
	logf     func(format string, args ...interface{})
	gate     *gatewayLimiter // nil = no per-token limits
	nodeName string          // "" = standalone; set = cluster node mode
}

// NewManagerHTTPServer exposes a manager. The second argument is ignored: it
// used to name the session behind the removed single-session routes and is
// kept only because bench/ still passes it (see ROADMAP item 2).
func NewManagerHTTPServer(m *Manager, _ string) (*HTTPServer, error) {
	if m == nil {
		return nil, errors.New("server: NewManagerHTTPServer requires a manager")
	}
	s := &HTTPServer{manager: m, mux: http.NewServeMux(), logf: log.Printf}

	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{session}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{session}", s.handleSessionDestroy)
	s.mux.HandleFunc("GET /v1/sessions/{session}/status", s.handleSessionStatus)
	s.mux.HandleFunc("POST /v1/sessions/{session}/queries", s.handleSessionQuerySubmit)
	s.mux.HandleFunc("GET /v1/sessions/{session}/queries", s.handleSessionQueryList)
	s.mux.HandleFunc("DELETE /v1/sessions/{session}/queries/{id}", s.handleSessionQueryDelete)
	s.mux.HandleFunc("GET /v1/sessions/{session}/queries/{id}/plan", s.handleSessionQueryPlan)
	s.mux.HandleFunc("POST /v1/sessions/{session}/script", s.handleSessionScript)
	s.mux.HandleFunc("POST /v1/sessions/{session}/step", s.handleSessionStep)
	s.mux.HandleFunc("POST /v1/sessions/{session}/ingest", s.handleSessionIngest)
	s.mux.HandleFunc("GET /v1/sessions/{session}/results/{id}", s.handleSessionResults)
	s.mux.HandleFunc("GET /v1/sessions/{session}/results/{id}/stream", s.handleSessionResultStream)

	// Node-mode control plane (see docs/API.md, "Cluster node routes"): a
	// cluster gateway drives session handoff with these — list durable
	// state, re-adopt a session by WAL replay, stop serving one without
	// purging it. Harmless on a standalone daemon.
	s.mux.HandleFunc("GET /v1/node/durable", s.handleNodeDurable)
	s.mux.HandleFunc("POST /v1/node/sessions/{session}/recover", s.handleNodeRecover)
	s.mux.HandleFunc("POST /v1/node/sessions/{session}/release", s.handleNodeRelease)
	return s, nil
}

// SetGatewayLimits installs (or clears, with the zero value) the per-token
// admission envelope applied to every ingest push ahead of the session's own
// TenantLimits. See docs/API.md, "Tenant limits".
func (s *HTTPServer) SetGatewayLimits(cfg GatewayLimits) {
	s.gate = newGatewayLimiter(cfg, nil)
}

// ServeHTTP implements http.Handler. In node mode it first asserts session
// ownership: a request stamped for a different node (a gateway routing on a
// stale ring, or a misconfigured proxy) is refused with 421 before touching
// any session state, so two nodes can never both mutate a handed-off
// session's WAL.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.nodeName != "" {
		if want := r.Header.Get(HeaderExpectNode); want != "" && want != s.nodeName {
			s.writeError(w, http.StatusMisdirectedRequest,
				fmt.Errorf("server: request routed for node %q but this is %q", want, s.nodeName))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// jsonEncoder pairs a reusable buffer with an encoder bound to it, so
// writeJSON neither allocates an encoder per response nor writes to the
// socket in encoder-sized dribbles.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoderPool = sync.Pool{
	New: func() interface{} {
		e := &jsonEncoder{}
		e.enc = json.NewEncoder(&e.buf)
		return e
	},
}

// writeJSON encodes v through a pooled encoder. Encoding into the buffer
// first means an encode failure is reported as a 500 instead of a torn
// 200 body.
func (s *HTTPServer) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	e := jsonEncoderPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonEncoderPool.Put(e)
		s.encodeFailed(w, fmt.Sprintf("%T response", v), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(e.buf.Bytes())
	if e.buf.Cap() <= 1<<20 { // don't pin giant result pages in the pool
		jsonEncoderPool.Put(e)
	}
}

// encodeFailed answers for a body that could not be rendered — always before
// any of it was written, so the client reads a 500, not a torn 200.
func (s *HTTPServer) encodeFailed(w http.ResponseWriter, what string, err error) {
	s.logf("server: http: encoding %s: %v", what, err)
	http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
}

func (s *HTTPServer) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errString renders an optional error for a JSON payload ("" = none).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// writeErr is the one place an error becomes an HTTP status (docs/API.md,
// "Errors", is this table). fallback is the status of an error the table
// does not name: 400 on routes where what remains is the caller's input,
// 500 otherwise. Order matters where errors nest — a DurabilityError
// wrapping wal.ErrClosed is the retryable shutdown case, not a disk fault.
func (s *HTTPServer) writeErr(w http.ResponseWriter, err error, fallback int) {
	status, retryAfter := fallback, 0
	var rl *RateLimitError
	var durErr *DurabilityError
	switch {
	case errors.Is(err, ErrNoSession):
		status = http.StatusNotFound
	case errors.Is(err, ErrSessionExists):
		status = http.StatusConflict
	case errors.Is(err, ErrTooManySessions):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrInvalidSpec), errors.Is(err, query.ErrRate):
		status = http.StatusBadRequest
	case errors.Is(err, ErrManagerClosed), errors.Is(err, ingest.ErrClosed), errors.Is(err, wal.ErrClosed):
		// Shutdown or session churn, refused before any state change: a node
		// on its way down cannot tell "gone" from "about to be served
		// elsewhere", and a client that read 404 there would end a result
		// stream that is only moving (see client.ResultStream). The client
		// library honors the hint (client.RetryPolicy).
		status, retryAfter = http.StatusServiceUnavailable, IngestRetryAfterSeconds
	case errors.As(err, &rl):
		// Quota refusals clear only when the tenant releases resources; they
		// still carry the minimum hint so clients back off.
		status, retryAfter = http.StatusTooManyRequests, rl.retryAfterSeconds()
	case errors.As(err, &durErr):
		// fsync error, disk full: the batch was NOT durably acked. Producers
		// must not discard batches on 5xx.
		status = http.StatusInternalServerError
	case errors.Is(err, ErrNoIngest):
		status = http.StatusConflict
	case errors.Is(err, wire.ErrFrameTooLarge), errors.Is(err, wire.ErrBodyTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, wire.ErrUnsupportedEncoding):
		status = http.StatusUnsupportedMediaType
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.writeError(w, status, err)
}

// session resolves a session name, writing the error itself on a miss.
func (s *HTTPServer) session(w http.ResponseWriter, name string) *Session {
	sess, err := s.manager.Get(name)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return nil
	}
	return sess
}

// --- wire formats ---------------------------------------------------------

// queryJSON is the wire form of a query.
type queryJSON struct {
	ID    string  `json:"id"`
	Attr  string  `json:"attr"`
	MinX  float64 `json:"minX"`
	MinY  float64 `json:"minY"`
	MaxX  float64 `json:"maxX"`
	MaxY  float64 `json:"maxY"`
	Rate  float64 `json:"rate"`
	CRAQL string  `json:"craql,omitempty"`
}

func toQueryJSON(q query.Query) queryJSON {
	return queryJSON{
		ID: q.ID, Attr: q.Attr,
		MinX: q.Region.MinX, MinY: q.Region.MinY, MaxX: q.Region.MaxX, MaxY: q.Region.MaxY,
		Rate: q.Rate,
	}
}

// costEstimateJSON is the wire form of a planner.CostEstimate.
type costEstimateJSON struct {
	Operators      int     `json:"operators"`
	Depth          int     `json:"depth"`
	TuplesPerEpoch float64 `json:"tuplesPerEpoch"`
	Cost           float64 `json:"cost"`
}

// explainJSON is the wire form of a plan explanation. Explain is the
// canonical text table (planner.Explanation.Table).
type explainJSON struct {
	Query    queryJSON        `json:"query"`
	Estimate costEstimateJSON `json:"estimate"`
	Explain  string           `json:"explain"`
	// Shared reports the live shared subplan serving the query's normal
	// form (≥ 2 attached queries); absent otherwise. Mirrors the table's
	// trailing "shared:" line.
	Shared *sharedPlanJSON `json:"shared,omitempty"`
}

// sharedPlanJSON is the wire form of planner.SharedPlan.
type sharedPlanJSON struct {
	Refs int `json:"refs"`
}

func toExplainJSON(ex planner.Explanation) explainJSON {
	est := ex.Estimate
	out := explainJSON{
		Query: toQueryJSON(ex.Query),
		Estimate: costEstimateJSON{
			Operators: est.Operators, Depth: est.Depth,
			TuplesPerEpoch: est.TuplesPE, Cost: est.Total,
		},
		Explain: ex.Table(),
	}
	if ex.Shared != nil {
		out.Shared = &sharedPlanJSON{Refs: ex.Shared.Refs}
	}
	return out
}

// sessionJSON is the wire form of a session. The ingest counters are
// lifetime tuple counts (see docs/API.md, "Ingest accounting"); watermark
// is the event-time low watermark in simulation time units, null until the
// session has seen any pushed event time or watermark assertion.
type sessionJSON struct {
	Name          string   `json:"name"`
	Created       string   `json:"created"`
	Running       bool     `json:"running"`
	ClockErr      string   `json:"clockError,omitempty"`
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
	// sessions — the WAL fsync policy, snapshot cadence and size
	// counters, plus whether this process recovered the session from disk.
	Durable           bool   `json:"durable,omitempty"`
	Fsync             string `json:"fsync,omitempty"`
	SnapshotEvery     int    `json:"snapshotEvery,omitempty"`
	LastSnapshotEpoch int    `json:"lastSnapshotEpoch,omitempty"`
	WALBytes          int64  `json:"walBytes,omitempty"`
	WALSegments       int    `json:"walSegments,omitempty"`
	Recovered         bool   `json:"recovered,omitempty"`
}

func toSessionJSON(sess *Session) sessionJSON {
	ist := sess.Engine.IngestStats()
	sj := sessionJSON{
		Name:          sess.Name,
		Created:       sess.Created.UTC().Format(time.RFC3339Nano),
		Running:       sess.Engine.Running(),
		ClockErr:      errString(sess.Engine.ClockErr()),
		Pinned:        sess.Spec.Pinned,
		Simulated:     sess.Spec.Clock.Simulated,
		Retention:     sess.Spec.Retention,
		Seed:          sess.Spec.Seed,
		Epochs:        sess.Engine.Epochs(),
		Now:           sess.Engine.Now(),
		Queries:       len(sess.Engine.Queries()),
		Adaptive:      sess.Engine.AdaptiveEnabled(),
		Source:        sess.Engine.SourceMode().String(),
		Ingested:      ist.Ingested,
		IngestDropped: ist.Dropped,
		LateDropped:   ist.LateDropped,
		Watermark:     finiteOrNil(ist.Watermark),
		Weight:        sess.Spec.Weight,
	}
	if lim := sess.Engine.Limits(); lim.enabled() {
		sj.Limits = &lim
	}
	if sess.Spec.Clock.Interval > 0 {
		sj.Tick = sess.Spec.Clock.Interval.String()
	}
	if ds := sess.Engine.Durability(); ds.Enabled {
		sj.Durable = true
		sj.Fsync = ds.Fsync
		sj.SnapshotEvery = ds.SnapshotEvery
		sj.LastSnapshotEpoch = ds.LastSnapshotEpoch
		sj.WALBytes = ds.WALBytes
		sj.WALSegments = ds.WALSegments
		sj.Recovered = ds.Recovered
	}
	return sj
}

// --- /v1 session lifecycle -------------------------------------------------

// handleHealthz reports liveness plus the gateway's ingest capabilities:
// the Content-Types the ingest route decodes and the Content-Encodings it
// inflates. Clients probe this once to pick the densest codec the server
// speaks (see client.Client capabilities).
func (s *HTTPServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{
		"status":   "ok",
		"sessions": s.manager.Len(),
		"ingest": map[string]interface{}{
			"codecs":    IngestCodecs,
			"encodings": wire.Encodings(),
		},
	}
	if s.nodeName != "" {
		// Cluster gateways learn each pool member's advertised name from
		// here, and stamp it back as X-CrAQR-Expect-Node on routed requests.
		resp["node"] = s.nodeName
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// sessionSpecJSON is the create-session request body; all fields optional.
// docs/API.md's field table is checked against these tags
// (scripts/docs_check.sh).
type sessionSpecJSON struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Retention int    `json:"retention"`
	Tick      string `json:"tick"`      // duration, e.g. "200ms"; empty = manual stepping
	Simulated bool   `json:"simulated"` // epochs back-to-back, no wall-clock pacing
	Pinned    bool   `json:"pinned"`
	// AdaptiveRates turns the rate-retune feedback loop on or off for this
	// session (see DESIGN.md, "Planning and adaptivity"); absent inherits
	// the server's -budget template.
	AdaptiveRates *bool `json:"adaptiveRates"`
	// Source composition for the session's epochs: "simulated", "external"
	// or "mixed" (empty inherits the server's -source template); the ingest
	// queue bound in tuples, the event-time out-of-order tolerance in
	// simulation time units, and the late-tuple policy ("drop" or "next").
	Source          string  `json:"source"`
	IngestBuffer    int     `json:"ingestBuffer"`
	IngestTolerance float64 `json:"tolerance"`
	LatePolicy      string  `json:"latePolicy"`
	// Durability knobs (effective only when the server runs with
	// -data-dir): disableDurability opts the session out of write-ahead
	// logging, snapshotEvery overrides the snapshot cadence in epochs,
	// fsyncPolicy overrides the WAL fsync policy ("batch", "always",
	// "never").
	DisableDurability bool   `json:"disableDurability"`
	SnapshotEvery     int    `json:"snapshotEvery"`
	FsyncPolicy       string `json:"fsyncPolicy"`
	// Tenant protection (see docs/API.md, "Tenant limits"): the session's
	// fair-share weight under epoch contention (0 = default 1) and its
	// admission-control limits (absent = unlimited).
	Weight float64       `json:"weight"`
	Limits *TenantLimits `json:"limits"`
}

// spec converts the wire form into the SessionSpec Manager.Create validates;
// the tick string is the one field that needs parsing on the way.
func (b sessionSpecJSON) spec() (SessionSpec, error) {
	spec := SessionSpec{
		Name:              b.Name,
		Seed:              b.Seed,
		Retention:         b.Retention,
		Clock:             ClockConfig{Simulated: b.Simulated},
		Pinned:            b.Pinned,
		AdaptiveRates:     b.AdaptiveRates,
		Source:            b.Source,
		IngestBuffer:      b.IngestBuffer,
		IngestTolerance:   b.IngestTolerance,
		LatePolicy:        b.LatePolicy,
		DisableDurability: b.DisableDurability,
		SnapshotEvery:     b.SnapshotEvery,
		FsyncPolicy:       b.FsyncPolicy,
		Weight:            b.Weight,
		Limits:            b.Limits,
	}
	if b.Tick != "" {
		d, err := time.ParseDuration(b.Tick)
		if err != nil || d < 0 {
			return SessionSpec{}, fmt.Errorf("%w: invalid tick %q", ErrInvalidSpec, b.Tick)
		}
		spec.Clock.Interval = d
	}
	return spec, nil
}

// MaxSpecBytes caps a session spec or CrAQL statement body: a longer one is
// refused whole (413), never parsed truncated. A gateway applies the same
// cap to the create bodies it peeks.
const MaxSpecBytes = 64 << 10

// handleSessionCreate refuses unknown fields instead of ignoring them: a
// misspelt or removed override that silently does nothing is the failure to
// avoid. The body is one spec object (or nothing, for all defaults): a body
// past the cap is refused whole (413), and anything but whitespace after
// the object is a 400.
func (s *HTTPServer) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := wire.ReadBody(r.Body, MaxSpecBytes, wire.BorrowBuf())
	defer wire.ReleaseBuf(raw)
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	var body sessionSpecJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid session spec: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, errors.New("invalid session spec: data after the spec object"))
		return
	}
	spec, err := body.spec()
	var sess *Session
	if err == nil {
		sess, err = s.manager.Create(spec)
	}
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusCreated, toSessionJSON(sess))
}

func (s *HTTPServer) handleSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.manager.List()
	out := make([]sessionJSON, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, toSessionJSON(sess))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *HTTPServer) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r.PathValue("session")); sess != nil {
		s.writeJSON(w, http.StatusOK, toSessionJSON(sess))
	}
}

func (s *HTTPServer) handleSessionDestroy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("session")
	if err := s.manager.Destroy(name); err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"destroyed": name})
}

// --- /v1 session-scoped engine routes --------------------------------------

// handleSessionQuerySubmit executes one CrAQL statement: a plain query is
// submitted (201 + stored query); an EXPLAIN statement is priced by the
// planner and answered with the cost table (200) without registering
// anything.
func (s *HTTPServer) handleSessionQuerySubmit(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	e := sess.Engine
	// A body past the cap is refused whole (413), never parsed truncated.
	body, err := wire.ReadBody(r.Body, MaxSpecBytes, wire.BorrowBuf())
	defer wire.ReleaseBuf(body)
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	st, err := craql.ParseStatement(string(body))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if st.Explain {
		ex, err := e.ExplainQuery(st.Query)
		if err != nil {
			s.writeErr(w, err, http.StatusBadRequest)
			return
		}
		s.writeJSON(w, http.StatusOK, toExplainJSON(ex))
		return
	}
	q, err := e.Submit(st.Query)
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	s.writeJSON(w, http.StatusCreated, toQueryJSON(q))
}

func (s *HTTPServer) handleSessionQueryList(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	var out []queryJSON
	for _, q := range sess.Engine.Queries() {
		out = append(out, toQueryJSON(q))
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *HTTPServer) handleSessionQueryDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	id := r.PathValue("id")
	if err := sess.Engine.Delete(id); err != nil {
		s.writeErr(w, err, http.StatusNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleSessionQueryPlan serves a live query's plan: the EXPLAIN of its
// statement — its freshly priced estimate, the canonical text table and,
// when shared, the live group's refs.
func (s *HTTPServer) handleSessionQueryPlan(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	e := sess.Engine
	id := r.PathValue("id")
	q, ok := e.Fabricator().Query(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no such query %q", id))
		return
	}
	ex, err := e.ExplainQuery(q)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{"plan": toExplainJSON(ex)})
}

func (s *HTTPServer) handleSessionScript(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	// Scripts accept the same Content-Encodings as ingest (gzip/deflate,
	// registered hooks), with the decompressed size capped at the script
	// limit.
	rc, err := wire.Decompress(r.Body, strings.TrimSpace(r.Header.Get("Content-Encoding")))
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	defer rc.Close()
	body, err := wire.ReadBody(rc, 1<<20, wire.BorrowBuf())
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	defer wire.ReleaseBuf(body)
	qs, err := sess.Engine.SubmitScript(string(body))
	if err != nil {
		s.writeErr(w, err, http.StatusBadRequest)
		return
	}
	out := make([]queryJSON, 0, len(qs))
	for _, q := range qs {
		out = append(out, toQueryJSON(q))
	}
	s.writeJSON(w, http.StatusCreated, out)
}

// handleSessionStep advances the engine; epochs are serialized by
// Engine.stepMu, so concurrent HTTP steps and a running clock interleave at
// epoch boundaries. On a watermark-gated source the step stops early —
// without error — when the next epoch is still open; "stepped" reports how
// many epochs ran and "waiting" flags the early stop. A client that goes
// away while the step waits for an epoch slot takes its claim with it.
func (s *HTTPServer) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	e := sess.Engine
	n := 1
	if nv := r.URL.Query().Get("n"); nv != "" {
		parsed, err := strconv.Atoi(nv)
		if err != nil || parsed <= 0 || parsed > 100000 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", nv))
			return
		}
		n = parsed
	}
	done, err := e.RunReadyCtx(r.Context(), n)
	if err != nil {
		s.writeErr(w, err, http.StatusInternalServerError)
		return
	}
	resp := map[string]interface{}{"epochs": e.Epochs(), "now": e.Now(), "stepped": done}
	if done < n {
		resp["waiting"] = true
		if wm, ok := e.Watermark(); ok {
			resp["watermark"] = wm
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// --- results: cursor pagination and streaming -------------------------------

// parseCursorLimit extracts the ?cursor= and ?limit= pagination parameters
// shared by every result-reading route.
func parseCursorLimit(r *http.Request) (cursor uint64, limit int, err error) {
	if cv := r.URL.Query().Get("cursor"); cv != "" {
		cursor, err = strconv.ParseUint(cv, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("invalid cursor %q", cv)
		}
	}
	if lv := r.URL.Query().Get("limit"); lv != "" {
		limit, err = strconv.Atoi(lv)
		if err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("invalid limit %q", lv)
		}
	}
	return cursor, limit, nil
}

// handleSessionResults serves one page of a query's bounded result store.
func (s *HTTPServer) handleSessionResults(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	store, err := sess.Engine.ResultStore(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	cursor, limit, err := parseCursorLimit(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	tuples, next, dropped := store.ReadFrom(cursor, limit, nil)
	buf, err := appendResultPage(wire.BorrowBuf(), tuples, next, dropped, store)
	if err != nil {
		wire.ReleaseBuf(buf)
		s.encodeFailed(w, "result page", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
	if cap(buf) <= 1<<20 { // don't pin giant result pages in the pool
		wire.ReleaseBuf(buf)
	}
}

// appendResultPage renders one page of the paged result route with the
// append encoders the push routes use — byte-identical to what encoding/json
// made of the map this route used to build (keys in sorted order, a trailing
// newline), without a second copy of the page or reflection over it. A tuple
// is {id,t,x,y,value}: attr and sensor are the query's, not the page's. Like
// encoding/json it refuses a NaN or ±Inf field.
func appendResultPage(dst []byte, tuples []stream.Tuple, next, dropped uint64, store *stream.ResultStore) ([]byte, error) {
	dst = append(dst, `{"dropped":`...)
	dst = strconv.AppendUint(dst, dropped, 10)
	dst = append(dst, `,"nextCursor":`...)
	dst = strconv.AppendUint(dst, next, 10)
	dst = append(dst, `,"retained":`...)
	dst = strconv.AppendInt(dst, int64(store.Len()), 10)
	dst = append(dst, `,"retention":`...)
	dst = strconv.AppendInt(dst, int64(store.Retention()), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendUint(dst, store.Total(), 10)
	dst = append(dst, `,"tuples":[`...)
	for i := range tuples {
		tp := &tuples[i]
		for _, f := range [...]float64{tp.T, tp.X, tp.Y, tp.Value} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, fmt.Errorf("json: unsupported value: %v", f)
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, tp.ID, 10)
		dst = append(dst, `,"t":`...)
		dst = wire.AppendJSONFloat(dst, tp.T)
		dst = append(dst, `,"x":`...)
		dst = wire.AppendJSONFloat(dst, tp.X)
		dst = append(dst, `,"y":`...)
		dst = wire.AppendJSONFloat(dst, tp.Y)
		dst = append(dst, `,"value":`...)
		dst = wire.AppendJSONFloat(dst, tp.Value)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}', '\n'), nil
}

// streamChunk bounds how many tuples one push writes before flushing.
const streamChunk = 512

// handleSessionResultStream pushes a query's stream to the client as it is
// fabricated: ndjson by default (one tuple per line, reusing the
// export.JSONLinesSink wire format), SSE with ?sse=1 or
// Accept: text/event-stream. The connection stays open until the client
// disconnects or the query is deleted. Tuples evicted before delivery are
// reported as an explicit drop record ({"dropped":n} line / "drop" event),
// never silently skipped.
func (s *HTTPServer) handleSessionResultStream(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	store, err := sess.Engine.ResultStore(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	cursor, limit, err := parseCursorLimit(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// ?limit= throttles the per-push chunk size (bounded by the default).
	chunk := streamChunk
	if limit > 0 && limit < streamChunk {
		chunk = limit
	}
	if lv := r.Header.Get("Last-Event-ID"); sse && lv != "" && r.URL.Query().Get("cursor") == "" {
		// SSE reconnects resume from the last delivered position.
		if c, perr := strconv.ParseUint(lv, 10, 64); perr == nil {
			cursor = c
		}
	}

	var (
		sink  *export.JSONLinesSink // nil on the SSE framing
		frame []byte
	)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if sink, err = export.NewJSONLinesSink(w); err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := stream.BorrowTuples(chunk)
	defer buf.Release()
	for {
		out, next, dropped := store.ReadFrom(cursor, chunk, buf.Tuples[:0])
		if frame, err = writeStreamChunk(w, sink, frame, out, next, dropped); err != nil {
			return // client went away
		}
		if len(out) > 0 || dropped > 0 {
			flusher.Flush()
		}
		cursor = next
		if err := s.waitStream(r.Context(), sess.Name, store, cursor); err != nil {
			return
		}
	}
}

// waitStream blocks until the store grows past cursor, the client
// disconnects (ctx), or the query/session goes away (store closed — a
// clean end of stream either way). While parked it periodically re-resolves
// the session so an open stream counts as activity to the idle GC even
// when the producer is slow.
func (s *HTTPServer) waitStream(ctx context.Context, session string, store *stream.ResultStore, cursor uint64) error {
	touch := s.manager.touchInterval()
	for {
		// Resolving refreshes the session's lastAccess; a reaped session
		// ends the stream.
		if _, err := s.manager.Get(session); err != nil {
			return err
		}
		if touch <= 0 {
			return store.Wait(ctx, cursor)
		}
		wctx, cancel := context.WithTimeout(ctx, touch)
		err := store.Wait(wctx, cursor)
		cancel()
		if err == nil || ctx.Err() != nil || !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// Touch-interval wakeup, not a real deadline: go around and park
		// again.
	}
}

// writeStreamChunk emits one read's worth of tuples (and its drop notice)
// in the negotiated framing: ndjson through sink or, when sink is nil, SSE
// events rendered into frame and written at once. It returns frame for the
// next call to reuse.
func writeStreamChunk(w io.Writer, sink *export.JSONLinesSink, frame []byte, out []stream.Tuple, next uint64, dropped uint64) ([]byte, error) {
	if sink != nil {
		if dropped > 0 {
			if _, err := fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped); err != nil {
				return frame, err
			}
		}
		if len(out) == 0 {
			return frame, nil
		}
		return frame, sink.Process(stream.Batch{Tuples: out})
	}
	frame = frame[:0]
	if dropped > 0 {
		frame = append(frame, "event: drop\ndata: {\"dropped\":"...)
		frame = strconv.AppendUint(frame, dropped, 10)
		frame = append(frame, "}\n\n"...)
	}
	base := next - uint64(len(out))
	for i, tp := range out {
		// Same record shape as the ndjson framing (attr and sensor
		// included) so clients can switch framings losslessly.
		frame = append(frame, "id: "...)
		frame = strconv.AppendUint(frame, base+uint64(i)+1, 10)
		frame = append(frame, "\ndata: "...)
		var err error
		if frame, err = export.AppendTupleJSON(frame, tp); err != nil {
			return frame, err
		}
		frame = append(frame, "\n\n"...)
	}
	if len(frame) == 0 {
		return frame, nil
	}
	_, err := w.Write(frame)
	return frame, err
}

// --- status -----------------------------------------------------------------

func (s *HTTPServer) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	e := sess.Engine
	budgets := e.Budgets().Snapshots()
	type budgetJSON struct {
		Attr       string  `json:"attr"`
		Q          int     `json:"q"`
		R          int     `json:"r"`
		Budget     float64 `json:"budget"`
		LastNv     float64 `json:"lastNv"`
		Infeasible bool    `json:"infeasible"`
	}
	bj := make([]budgetJSON, 0, len(budgets))
	for _, b := range budgets {
		bj = append(bj, budgetJSON{
			Attr: b.Key.Attr, Q: b.Key.Cell.Q, R: b.Key.Cell.R,
			Budget: b.Budget, LastNv: b.LastNv, Infeasible: b.Infeasible,
		})
	}
	// Adaptive-rates slots: current scale and violation per starved cell.
	type adaptiveSlotJSON struct {
		Attr       string  `json:"attr"`
		Q          int     `json:"q"`
		R          int     `json:"r"`
		Scale      float64 `json:"scale"`
		LastNv     float64 `json:"lastNv"`
		Infeasible bool    `json:"infeasible"`
	}
	var slots []adaptiveSlotJSON
	for _, sl := range e.AdaptiveSlots() {
		slots = append(slots, adaptiveSlotJSON{
			Attr: sl.Key.Attr, Q: sl.Key.Cell.Q, R: sl.Key.Cell.R,
			Scale: sl.Scale, LastNv: sl.LastNv, Infeasible: sl.Infeasible,
		})
	}
	// Ingest accounting (lifetime tuple counts; see docs/API.md): ingested
	// entered the queue, ingestDropped were overflow-rejected, lateDropped
	// discarded as late, ingestLate redirected to a later epoch,
	// ingestRejected failed validation; ingestPending is the current
	// backlog and watermark the event-time low watermark (null unknown).
	ist := e.IngestStats()
	// Tenant protection (see docs/API.md, "Tenant limits"): the epoch
	// scheduler's per-session accounting (null before the session is gated),
	// the admission-control refusal counters, and the configured limits
	// (null when unlimited).
	var sched interface{}
	if st, ok := e.SchedStats(); ok {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		sched = map[string]interface{}{
			"weight":       st.Weight,
			"epochsServed": st.Served,
			"totalWaitMs":  ms(st.TotalWait),
			"maxWaitMs":    ms(st.MaxWait),
			"p50WaitMs":    ms(st.P50Wait),
			"p99WaitMs":    ms(st.P99Wait),
		}
	}
	ts := e.ThrottleCounters()
	// Multi-query sharing (see docs/API.md, "Status"): sharedPrefixes is
	// the number of subplans serving ≥ 2 queries, subplans the distinct
	// fabricated subplans and resultRings the distinct result rings they
	// write.
	shared := e.SharedStats()
	// The compiled epoch programs (see docs/API.md, "Status"): what an epoch
	// executes, and how often that had to be recompiled.
	program := e.Fabricator().ProgramStats()
	var limits interface{}
	if lim := e.Limits(); lim.enabled() {
		limits = lim
	}
	// Durability state (see docs/API.md, "Durability"): null on
	// non-durable sessions.
	var durability interface{}
	if ds := e.Durability(); ds.Enabled {
		durability = map[string]interface{}{
			"fsync":             ds.Fsync,
			"snapshotEvery":     ds.SnapshotEvery,
			"lastSnapshotEpoch": ds.LastSnapshotEpoch,
			"walBytes":          ds.WALBytes,
			"walSegments":       ds.WALSegments,
			"walRecords":        ds.WALRecords,
			"recovered":         ds.Recovered,
			"replayedRecords":   ds.ReplayedRecords,
			"tornTail":          ds.TornTail,
			"snapshotVerified":  ds.SnapshotVerified,
		}
	}
	fitIterations, fitsNotConverged := e.FitStats()
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"session":          sess.Name,
		"running":          e.Running(),
		"clockError":       errString(e.ClockErr()),
		"now":              e.Now(),
		"epochs":           e.Epochs(),
		"queries":          len(e.Queries()),
		"pipelines":        e.Fabricator().NumPipelines(),
		"operators":        e.Fabricator().OperatorCounts(),
		"workers":          e.Workers(),
		"sharedPrefixes":   shared.SharedSubplans,
		"sharedQueries":    shared.SharedQueries,
		"sharedAttaches":   shared.Attaches,
		"subplans":         shared.Subplans,
		"resultRings":      shared.ResultRings,
		"adaptive":         e.AdaptiveEnabled(),
		"adaptiveSlots":    slots,
		"meanNv":           e.MeanViolation(),
		"fitIterations":    fitIterations,
		"fitsNotConverged": fitsNotConverged,
		"requests":         e.Handler().RequestsSent(),
		"responses":        e.Handler().ResponsesReceived(),
		"retentionDrops":   e.RetentionDrops(),
		"source":           e.SourceMode().String(),
		"ingested":         ist.Ingested,
		"ingestDropped":    ist.Dropped,
		"ingestLate":       ist.Late,
		"lateDropped":      ist.LateDropped,
		"ingestRejected":   ist.Rejected,
		"ingestPending":    ist.Pending,
		"ingestDuplicates": ist.Duplicates,
		"watermark":        finiteOrNil(ist.Watermark),
		"durability":       durability,
		"sched":            sched,
		"limits":           limits,
		"topology": map[string]interface{}{
			"program": map[string]interface{}{
				"subplans": program.Subplans,
				"sources":  program.Sources,
				"compiles": program.Compiles,
			},
		},
		"throttled": map[string]interface{}{
			"batches": ts.Batches,
			"tuples":  ts.Tuples,
			"queries": ts.Queries,
		},
		"budgets": bj,
	})
}
