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

	"repro/client"
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
	s.gate = newGatewayLimiter(cfg)
}

// ServeHTTP implements http.Handler. In node mode it first asserts session
// ownership: a request stamped for a different node (a gateway routing on a
// stale ring, or a misconfigured proxy) is refused with 421 before touching
// any session state, so two nodes can never both mutate a handed-off
// session's WAL.
func (s *HTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.nodeName != "" {
		if want := r.Header.Get(HeaderExpectNode); want != "" && want != s.nodeName {
			WriteError(w, fmt.Errorf("server: request routed for node %q but this is %q", want, s.nodeName),
				http.StatusMisdirectedRequest)
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

// errString renders an optional error for a JSON payload ("" = none).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WriteError is the one place an error becomes an HTTP status and an error
// body, for craqrd and the cluster gateway alike (docs/API.md, "Errors", is
// this table). fallback is the status of an error the table does not name:
// 400 on routes where what remains is the caller's input, 500 otherwise, or
// the status of a handler's own refusal. Order matters where errors nest —
// a DurabilityError wrapping wal.ErrClosed is the retryable shutdown case,
// not a disk fault.
func WriteError(w http.ResponseWriter, err error, fallback int) {
	status, retryAfter := fallback, 0
	var rl *RateLimitError
	var durErr *DurabilityError
	var unavailable Unavailable
	switch {
	case errors.Is(err, ErrNoSession):
		status = http.StatusNotFound
	case errors.Is(err, ErrSessionExists):
		status = http.StatusConflict
	case errors.Is(err, ErrTooManySessions):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrInvalidSpec), errors.Is(err, query.ErrRate):
		status = http.StatusBadRequest
	case errors.Is(err, ErrManagerClosed), errors.Is(err, ingest.ErrClosed), errors.Is(err, wal.ErrClosed),
		errors.As(err, &unavailable):
		// Shutdown, session churn or a gateway with no way to the session
		// yet, refused before any state change: a node on its way down
		// cannot tell "gone" from "about to be served elsewhere", and a
		// client that read 404 there would end a result stream that is only
		// moving (see client.ResultStream). The client library honors the
		// hint (client.RetryPolicy).
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(client.ErrorBody{Error: err.Error()})
}

// Unavailable is a cluster gateway's refusal of a request it cannot route
// yet (no healthy node, a session mid-handoff, a dead owner): 503.
type Unavailable string

func (u Unavailable) Error() string { return string(u) }

// session resolves a session name, writing the error itself on a miss.
func (s *HTTPServer) session(w http.ResponseWriter, name string) *Session {
	sess, err := s.manager.Get(name)
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return nil
	}
	return sess
}

// --- wire formats ---------------------------------------------------------

// The v1 bodies the client package declares are rendered and decoded as
// those types (toQueryJSON, toSessionJSON, toStatusJSON, specFromWire); only
// the bodies nothing else decodes — the plan explanation and the one-field
// acknowledgements — are declared here.
func toQueryJSON(q query.Query) client.Query {
	return client.Query{
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
	Query    client.Query     `json:"query"`
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

// The acknowledgements of a destroyed session, a deleted query, and the
// plan route's wrapper around a live query's explanation.
type (
	destroyedJSON struct {
		Destroyed string `json:"destroyed"`
	}
	deletedJSON struct {
		Deleted string `json:"deleted"`
	}
	planJSON struct {
		Plan explainJSON `json:"plan"`
	}
)

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

func toSessionJSON(sess *Session) client.Session {
	ist := sess.Engine.IngestStats()
	sj := client.Session{
		Name:          sess.Name,
		Created:       sess.Created.UTC().Format(time.RFC3339Nano),
		Running:       sess.Engine.Running(),
		ClockError:    errString(sess.Engine.ClockErr()),
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
	if lim := sess.Engine.Limits(); lim != (TenantLimits{}) {
		sj.Limits = &lim
	}
	if sess.Spec.Clock.Interval > 0 {
		sj.Tick = sess.Spec.Clock.Interval.String()
	}
	if ds := sess.Engine.Durability(); ds != nil {
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
	// Cluster gateways learn each pool member's advertised name (node) from
	// here, and stamp it back as X-CrAQR-Expect-Node on routed requests.
	s.writeJSON(w, http.StatusOK, client.Health{
		Status:   "ok",
		Sessions: s.manager.Len(),
		Ingest:   IngestCapabilities(),
		Node:     s.nodeName,
	})
}

// specFromWire converts the create-session body into the SessionSpec
// Manager.Create validates; the tick string is the one field that needs
// parsing on the way.
func specFromWire(b client.SessionSpec) (SessionSpec, error) {
	spec := SessionSpec{
		Name:              b.Name,
		Seed:              b.Seed,
		Retention:         b.Retention,
		Clock:             ClockConfig{Simulated: b.Simulated},
		Pinned:            b.Pinned,
		AdaptiveRates:     b.AdaptiveRates,
		Source:            b.Source,
		IngestBuffer:      b.IngestBuffer,
		IngestTolerance:   b.Tolerance,
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
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	var body client.SessionSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		WriteError(w, fmt.Errorf("invalid session spec: %w", err), http.StatusBadRequest)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		WriteError(w, errors.New("invalid session spec: data after the spec object"), http.StatusBadRequest)
		return
	}
	spec, err := specFromWire(body)
	var sess *Session
	if err == nil {
		sess, err = s.manager.Create(spec)
	}
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusCreated, toSessionJSON(sess))
}

func (s *HTTPServer) handleSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.manager.List()
	out := make([]client.Session, 0, len(sessions))
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
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, destroyedJSON{Destroyed: name})
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
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	st, err := craql.ParseStatement(string(body))
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	if st.Explain {
		ex, err := e.ExplainQuery(st.Query)
		if err != nil {
			WriteError(w, err, http.StatusBadRequest)
			return
		}
		s.writeJSON(w, http.StatusOK, toExplainJSON(ex))
		return
	}
	q, err := e.Submit(st.Query)
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	s.writeJSON(w, http.StatusCreated, toQueryJSON(q))
}

func (s *HTTPServer) handleSessionQueryList(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r.PathValue("session"))
	if sess == nil {
		return
	}
	var out []client.Query
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
		WriteError(w, err, http.StatusNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, deletedJSON{Deleted: id})
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
		WriteError(w, fmt.Errorf("server: no such query %q", id), http.StatusNotFound)
		return
	}
	ex, err := e.ExplainQuery(q)
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, planJSON{Plan: toExplainJSON(ex)})
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
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	defer rc.Close()
	body, err := wire.ReadBody(rc, 1<<20, wire.BorrowBuf())
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	defer wire.ReleaseBuf(body)
	qs, err := sess.Engine.SubmitScript(string(body))
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
		return
	}
	out := make([]client.Query, 0, len(qs))
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
			WriteError(w, fmt.Errorf("invalid n %q", nv), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	done, err := e.RunReadyCtx(r.Context(), n)
	if err != nil {
		WriteError(w, err, http.StatusInternalServerError)
		return
	}
	resp := client.StepResult{Epochs: e.Epochs(), Now: e.Now(), Stepped: done, Waiting: done < n}
	if resp.Waiting {
		if wm, ok := e.Watermark(); ok {
			resp.Watermark = &wm
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
		WriteError(w, err, http.StatusNotFound)
		return
	}
	cursor, limit, err := parseCursorLimit(r)
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
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
// fabricated: ndjson by default (one tuple per line, in the
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
		WriteError(w, err, http.StatusNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, errors.New("streaming unsupported by connection"), http.StatusInternalServerError)
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	cursor, limit, err := parseCursorLimit(r)
	if err != nil {
		WriteError(w, err, http.StatusBadRequest)
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

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var frame []byte
	buf := stream.BorrowTuples(chunk)
	defer buf.Release()
	for {
		out, next, dropped := store.ReadFrom(cursor, chunk, buf.Tuples[:0])
		if frame, err = writeStreamChunk(w, sse, frame, out, next, dropped); err != nil {
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

// writeStreamChunk renders one read's worth of tuples (and its drop notice)
// into frame in the negotiated framing — ndjson lines, or SSE events — and
// writes it at once. A tuple that cannot be rendered ends the chunk: the
// ndjson records before it are still written, the SSE events are not. It
// returns frame for the next call to reuse.
func writeStreamChunk(w io.Writer, sse bool, frame []byte, out []stream.Tuple, next uint64, dropped uint64) ([]byte, error) {
	end := "\n"
	if sse {
		end = "\n\n"
	}
	frame = frame[:0]
	if dropped > 0 {
		if sse {
			frame = append(frame, "event: drop\ndata: "...)
		}
		frame = append(frame, `{"dropped":`...)
		frame = strconv.AppendUint(frame, dropped, 10)
		frame = append(frame, '}')
		frame = append(frame, end...)
	}
	base := next - uint64(len(out))
	var err error
	for i, tp := range out {
		if sse {
			// Same record shape as the ndjson framing (attr and sensor
			// included) so clients can switch framings losslessly.
			frame = append(frame, "id: "...)
			frame = strconv.AppendUint(frame, base+uint64(i)+1, 10)
			frame = append(frame, "\ndata: "...)
		}
		if frame, err = export.AppendTupleJSON(frame, tp); err != nil {
			if sse {
				return frame, err
			}
			break
		}
		frame = append(frame, end...)
	}
	if len(frame) > 0 {
		if _, werr := w.Write(frame); werr != nil {
			return frame, werr
		}
	}
	return frame, err
}

// --- status -----------------------------------------------------------------

func (s *HTTPServer) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r.PathValue("session")); sess != nil {
		s.writeJSON(w, http.StatusOK, toStatusJSON(sess.Name, sess.Engine))
	}
}

// toStatusJSON fills the /status body from the engine (see docs/API.md,
// "Status"). Every engine a manager serves carries its scheduler gate, so
// sched is always that gate's accounting.
func toStatusJSON(name string, e *Engine) client.Status {
	fab := e.Fabricator()
	ist := e.IngestStats()
	shared := fab.SharedStats()
	program := fab.ProgramStats()
	e.mu.Lock()
	gate, fitIterations, fitsNotConverged := e.gate, e.fitIterations, e.fitsNotConverged
	e.mu.Unlock()
	st := client.Status{
		Adaptive:         e.AdaptiveEnabled(),
		Budgets:          []client.Budget{},
		ClockError:       errString(e.ClockErr()),
		Durability:       e.Durability(),
		Epochs:           e.Epochs(),
		FitIterations:    fitIterations,
		FitsNotConverged: fitsNotConverged,
		IngestDropped:    ist.Dropped,
		IngestDuplicates: ist.Duplicates,
		IngestLate:       ist.Late,
		IngestPending:    ist.Pending,
		IngestRejected:   ist.Rejected,
		Ingested:         ist.Ingested,
		LateDropped:      ist.LateDropped,
		MeanNv:           e.MeanViolation(),
		Now:              e.Now(),
		Operators:        fab.OperatorCounts(),
		Pipelines:        fab.NumPipelines(),
		Queries:          len(e.Queries()),
		Requests:         e.Handler().RequestsSent(),
		Responses:        e.Handler().ResponsesReceived(),
		ResultRings:      shared.ResultRings,
		RetentionDrops:   e.RetentionDrops(),
		Running:          e.Running(),
		Sched:            gate.Stats(),
		Session:          name,
		SharedAttaches:   shared.Attaches,
		SharedPrefixes:   shared.SharedSubplans,
		SharedQueries:    shared.SharedQueries,
		Source:           e.SourceMode().String(),
		Subplans:         shared.Subplans,
		Watermark:        finiteOrNil(ist.Watermark),
		Workers:          fab.Workers(),
	}
	st.Topology.Program = client.Program{Compiles: program.Compiles, Sources: program.Sources, Subplans: program.Subplans}
	for _, b := range e.Budgets().Snapshots() {
		st.Budgets = append(st.Budgets, client.Budget{
			Attr: b.Key.Attr, Q: b.Key.Cell.Q, R: b.Key.Cell.R,
			Budget: b.Budget, LastNv: b.LastNv, Infeasible: b.Infeasible,
		})
	}
	if e.adaptive != nil {
		for _, sl := range e.adaptive.Snapshots() {
			scale, _ := e.adaptive.RateScale(sl.Key)
			st.AdaptiveSlots = append(st.AdaptiveSlots, client.AdaptiveSlot{
				Attr: sl.Key.Attr, Q: sl.Key.Cell.Q, R: sl.Key.Cell.R,
				Scale: scale, LastNv: sl.LastNv, Infeasible: sl.Infeasible,
			})
		}
	}
	if e.limiter != nil {
		st.Throttled = e.limiter.stats()
	}
	if lim := e.Limits(); lim != (TenantLimits{}) {
		st.Limits = &lim
	}
	return st
}
