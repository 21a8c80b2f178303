package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/craql"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/planner"
	"repro/internal/pmat"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/world"
)

// The traced run composes the daemon's path from the layers' public
// functions, in this process, and records a span around each call. No file
// outside bench/ changes for it: spans inside the program are a later
// change. The same pass runs once with the tracer off; the difference is the
// tracing overhead.

// span is one timed call. Spans of one request — and of the epoch its
// watermark closed — share an id; parent indexes the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Cell pipelines execute on
// the fabricator's worker pool, so stream.store spans arrive concurrently.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, id, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if !t.on {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerTimes sums, per span name, total and self time: a span's self time is
// its duration minus the part of its interval that its children cover
// (children of one parent may overlap when workers run in parallel, so the
// cover is the union of their intervals).
func layerTimes(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		// The epoch a request's watermark closed names the request as its
		// cause but runs after it, so a child counts only where it overlaps.
		var covered int64
		hi := s.Start
		for _, k := range kids {
			lo, end := max(k[0], hi), min(k[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.Name] += d - covered
	}
	return total, self
}

// timedStore wraps a query's ResultStore as the sink handed to InsertQuery,
// so the time the fabricator spends storing results is a span of its own.
type timedStore struct {
	store *stream.ResultStore
	p     *pipeline
}

func (s *timedStore) Process(b stream.Batch) error {
	i := s.p.tr.begin("stream.store", s.p.curID, s.p.curIngest)
	err := s.store.Process(b)
	s.p.tr.end(i)
	s.p.stored.Add(int64(len(b.Tuples)))
	return err
}

// walJournal is the bench's stand-in for the engine's private journal: it
// appends what the queue reports to a real wal.Log, each append a span under
// whichever call (push or acquire) triggered it.
type walJournal struct{ p *pipeline }

func (j walJournal) JournalPush(tuples []stream.Tuple, watermark float64) {
	j.p.walAppend(&wal.Record{Type: wal.TypePush, Tuples: tuples, Watermark: watermark})
}

func (j walJournal) JournalDrain(t1 float64) {
	j.p.walAppend(&wal.Record{Type: wal.TypeEpoch, T1: t1})
}

// pipeline is the in-process composition of one session's path.
type pipeline struct {
	w   workload
	tr  *tracer
	eng *server.Engine // admission only: Engine.AdmitIngest

	dec    *wire.Decoder
	queue  *ingest.Queue
	src    *ingest.QueueSource
	fab    *topology.Fabricator
	probe  *stream.ResultStore
	log    *wal.Log
	sink   *export.JSONLinesSink
	out    countingWriter
	ackBuf []byte
	rdBuf  []stream.Tuple

	cursor    uint64
	curID     int // id of the request being served
	curParent int // span the current wal.append hangs under
	curIngest int // the topology.ingest span stream.store hangs under
	walErr    error

	stored    atomic.Int64 // tuples handed to result stores (workers run in parallel)
	ingested  int
	delivered int
	requests  int
	decodeErr int
	bytesIn   int64
	walBytes  int64
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (p *pipeline) walAppend(rec *wal.Record) {
	i := p.tr.begin("wal.append", p.curID, p.curParent)
	if err := p.log.Append(rec); err != nil && p.walErr == nil {
		p.walErr = err
	}
	p.tr.end(i)
}

// engineConfig is craqrd's session template for an external-source session of
// the workload: what the daemon's engine factory would hand server.New.
func engineConfig(w workload, seed int64) server.Config {
	cfg := world.Template(0)
	cfg.Seed = seed
	cfg.Retention = w.retention
	cfg.Source = server.SourceConfig{Mode: server.SourceExternal}
	return cfg
}

// newPipeline builds the layers the way server.New and Engine.Submit do:
// world template, planner-chosen merge mode per query, one bounded
// ResultStore per query.
func newPipeline(w workload, seed int64, tr *tracer, walDir string) (*pipeline, error) {
	p := &pipeline{w: w, tr: tr, curParent: -1, curIngest: -1}
	cfg := engineConfig(w, seed)
	fields, err := world.Fields()
	if err != nil {
		return nil, err
	}
	if p.eng, err = server.New(cfg, fields); err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(cfg.Region, cfg.GridCells)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	if p.fab, err = topology.New(grid, cfg.Fabricator, rng.Fork()); err != nil {
		return nil, err
	}
	icfg := ingest.Config{Buffer: 4 * w.tuplesPerEpoch(), Region: cfg.Region}
	if walDir != "" {
		if p.log, err = wal.Open(wal.Config{Dir: walDir, Fsync: wal.FsyncBatch}); err != nil {
			return nil, err
		}
		if _, err := p.log.Replay(func(*wal.Record) error { return nil }); err != nil {
			return nil, err
		}
		icfg.Journal = walJournal{p}
	}
	p.queue = ingest.NewQueue(icfg)
	if p.src, err = ingest.NewQueueSource(p.queue, cfg.Region); err != nil {
		return nil, err
	}
	weights := planner.DefaultWeights()
	for i, stmt := range w.statements() {
		q, err := craql.Parse(stmt)
		if err != nil {
			return nil, err
		}
		store := stream.NewResultStore(w.retention)
		if i == 0 {
			p.probe = store
		}
		est, err := planner.ChooseMergeMode(grid, q, cfg.Epoch, weights)
		if err != nil {
			return nil, err
		}
		if _, err := p.fab.InsertQueryMerge(q, &timedStore{store: store, p: p}, est.Mode); err != nil {
			return nil, err
		}
	}
	p.dec = wire.BorrowDecoder()
	if p.sink, err = export.NewJSONLinesSink(&p.out); err != nil {
		return nil, err
	}
	p.rdBuf = make([]stream.Tuple, 0, 512)
	return p, nil
}

func (p *pipeline) close() {
	p.dec.Release()
	if p.log != nil {
		_ = p.log.Close() // a scratch log: nothing to lose
	}
	_ = p.eng.Shutdown()
}

// request serves one ingest body the way handleSessionIngest does, then —
// when the body's watermark closed an epoch — runs that epoch the way
// Engine.step and the result-stream handler do.
func (p *pipeline) request(id int, body []byte, epoch int) error {
	p.curID = id
	req := p.tr.begin("req", id, -1)
	p.requests++
	p.bytesIn += int64(len(body))

	s := p.tr.begin("wire.decode", id, req)
	var (
		batch wire.Batch
		err   error
	)
	if p.w.json {
		batch, err = p.dec.DecodeJSON(body)
	} else {
		batch, err = p.dec.DecodeBinary(body)
	}
	p.tr.end(s)
	if err != nil {
		p.decodeErr++
		return err
	}

	s = p.tr.begin("server.admit", id, req)
	err = p.eng.AdmitIngest(len(batch.Tuples), len(body))
	p.tr.end(s)
	if err != nil {
		return err
	}

	s = p.tr.begin("ingest.push", id, req)
	p.curParent = s
	ack, err := p.queue.Push(batch.Tuples, batch.Watermark)
	p.tr.end(s)
	if err != nil {
		return err
	}
	if ack.Accepted != len(batch.Tuples) {
		return fmt.Errorf("bench: in-process push accepted %d of %d", ack.Accepted, len(batch.Tuples))
	}
	p.ingested += ack.Accepted
	if p.log != nil {
		s = p.tr.begin("wal.commit", id, req)
		err = p.log.Commit()
		p.tr.end(s)
		if err != nil {
			return err
		}
	}

	s = p.tr.begin("server.ack", id, req)
	p.ackBuf = server.AppendIngestAck(p.ackBuf[:0], ack, "")
	p.tr.end(s)
	p.tr.end(req)

	if math.IsNaN(batch.Watermark) {
		return nil
	}
	return p.epoch(id, req, epoch)
}

func (p *pipeline) epoch(id, parent, e int) error {
	ep := p.tr.begin("epoch", id, parent)
	defer p.tr.end(ep)
	t0, t1 := float64(e), float64(e+1)

	s := p.tr.begin("ingest.acquire", id, ep)
	p.curParent = s
	batches, err := p.src.Acquire(t0, t1)
	p.tr.end(s)
	if err != nil {
		return err
	}
	attrs := make([]string, 0, len(batches))
	for attr := range batches {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		s = p.tr.begin("topology.ingest", id, ep)
		p.curIngest = s
		err = p.fab.Ingest(batches[attr])
		p.tr.end(s)
		if err != nil {
			return err
		}
	}
	if p.log != nil {
		s = p.tr.begin("wal.commit", id, ep)
		err = p.log.Commit()
		p.tr.end(s)
		if err != nil {
			return err
		}
	}
	// Deliver the probe's new tuples in the stream handler's 512-tuple chunks.
	for {
		s = p.tr.begin("stream.read", id, ep)
		out, next, _ := p.probe.ReadFrom(p.cursor, 512, p.rdBuf[:0])
		p.tr.end(s)
		if len(out) == 0 {
			break
		}
		p.cursor = next
		p.delivered += len(out)
		s = p.tr.begin("export.encode", id, ep)
		err = p.sink.Process(stream.Batch{Tuples: out})
		p.tr.end(s)
		if err != nil {
			return err
		}
	}
	return p.walErr
}

// replayInProcess feeds the first n epochs of the corpus, request by request
// and inside one loop, to every pipeline given and to the optional ServeHTTP
// twin, and returns the time spent inside each pipeline. Feeding them in turn
// — and alternating who goes first — puts the same host conditions under all
// of them, so their difference is the code's and not the minute's.
func replayInProcess(w workload, seed int64, n int, twin *serveTwin, pipes ...*pipeline) ([]time.Duration, error) {
	c := newCorpus(w, seed)
	busy := make([]time.Duration, len(pipes))
	var body []byte
	var err error
	start := time.Now()
	for _, p := range pipes {
		p.tr.t0 = start
	}
	id := 0
	for e := 0; e < n; e++ {
		for f := 0; f < w.framesPerEpoch; f++ {
			tuples, wm := c.frame(e, f)
			if body, err = encode(body[:0], w.json, tuples, wm); err != nil {
				return nil, err
			}
			for k := range pipes {
				i := (k + id) % len(pipes)
				t := time.Now()
				err = pipes[i].request(id, body, e)
				busy[i] += time.Since(t)
				if err != nil {
					return nil, err
				}
			}
			if twin != nil {
				if err := twin.request(body, !math.IsNaN(wm)); err != nil {
					return nil, err
				}
			}
			id++
		}
	}
	return busy, nil
}

// serveTwin is the same session behind HTTPServer.ServeHTTP on a recorder —
// the whole handler with no socket. It is fed the traced pass's requests one
// for one, inside the same loop, so a slow stretch of the host lands on the
// handler's time and on the rungs subtracted from it alike.
type serveTwin struct {
	mgr      *server.Manager
	srv      *server.HTTPServer
	eng      *server.Engine
	ctype    string
	rd       *bytes.Reader
	busy     time.Duration
	requests int
}

func newServeTwin(w workload, seed int64, walDir string) (*serveTwin, error) {
	template := world.Template(0)
	template.Source = server.SourceConfig{Mode: server.SourceExternal}
	if walDir != "" {
		// The fsync barrier is the one rung whose time swings by tens of
		// microseconds from call to call; it is left out of both sides of
		// the subtraction (policy never here, the commit rung not subtracted).
		template.Durability = server.DurabilityConfig{Dir: walDir, Fsync: wal.FsyncNever}
	}
	mgr, err := server.NewManager(server.ManagerConfig{
		NewEngine:     server.NewEngineFactory(template, world.Fields),
		DurabilityDir: walDir,
	})
	if err != nil {
		return nil, err
	}
	t := &serveTwin{mgr: mgr, ctype: contentType(w.json), rd: bytes.NewReader(nil)}
	if t.srv, err = server.NewManagerHTTPServer(mgr, ""); err != nil {
		t.close()
		return nil, err
	}
	// No clock: the twin's epochs are stepped by hand between requests and
	// outside the timed region, so the handler is timed without an epoch
	// competing for the cores.
	sess, err := mgr.Create(server.SessionSpec{
		Name: sessionName, Seed: seed, Retention: w.retention, Pinned: true,
		Source:       "external",
		IngestBuffer: 4 * w.tuplesPerEpoch(),
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.eng = sess.Engine
	for _, stmt := range w.statements() {
		if _, err := t.eng.SubmitCRAQL(stmt); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *serveTwin) close() { _ = t.mgr.Close() } // scratch sessions: nothing to lose

func (t *serveTwin) request(body []byte, closesEpoch bool) error {
	t.rd.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sessionName+"/ingest", t.rd)
	req.Header.Set("Content-Type", t.ctype)
	rec := httptest.NewRecorder()
	start := time.Now()
	t.srv.ServeHTTP(rec, req)
	t.busy += time.Since(start)
	t.requests++
	if rec.Code != http.StatusOK {
		return fmt.Errorf("bench: in-process ServeHTTP: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if closesEpoch {
		if done, err := t.eng.RunReady(1); err != nil || done != 1 {
			return fmt.Errorf("bench: in-process twin epoch did not close (ran %d): %v", done, err)
		}
	}
	return nil
}

func (t *serveTwin) nsPerReq() float64 { return float64(t.busy.Nanoseconds()) / float64(t.requests) }

// operatorPass drives one F and one T operator directly on the first epoch's
// batch of the probe attribute: ns per input tuple.
func operatorPass(w workload, seed int64) (flattenNs, thinNs float64, err error) {
	c := newCorpus(w, seed)
	var tuples []stream.Tuple
	for _, tp := range c.epoch(0) {
		if tp.Attr == w.attrs[0] {
			tuples = append(tuples, tp)
		}
	}
	stream.SortTuples(tuples)
	batch := stream.Batch{Attr: w.attrs[0], Window: geom.NewWindow(0, 1, world.Region()), Tuples: tuples}
	rng := stats.NewRNG(seed)
	fl, err := pmat.NewFlatten("F", pmat.FlattenConfig{TargetRate: w.probeRate}, rng.Fork())
	if err != nil {
		return 0, 0, err
	}
	density := float64(len(tuples)) / regionArea
	th, err := pmat.NewThin("T", density, density/2, rng.Fork())
	if err != nil {
		return 0, 0, err
	}
	const reps = 32
	timeOp := func(op stream.Processor) (float64, error) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := op.Process(batch); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(tuples)), nil
	}
	if flattenNs, err = timeOp(fl); err != nil {
		return 0, 0, err
	}
	thinNs, err = timeOp(th)
	return flattenNs, thinNs, err
}

// plannerPass times Engine.SubmitCRAQL over the workload's statements.
func plannerPass(w workload, seed int64) (usPerQuery float64, err error) {
	fields, err := world.Fields()
	if err != nil {
		return 0, err
	}
	eng, err := server.New(engineConfig(w, seed), fields)
	if err != nil {
		return 0, err
	}
	defer eng.Shutdown()
	stmts := w.statements()
	start := time.Now()
	for _, stmt := range stmts {
		if _, err := eng.SubmitCRAQL(stmt); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(len(stmts)), nil
}

// traceResult is what the in-process passes measured.
type traceResult struct {
	perTuple  map[string]float64 // self ns per ingested tuple, by span name
	perReq    map[string]float64 // total ns per request, by span name
	spans     int
	overhead  float64
	serveNs   float64 // ServeHTTP per request
	rungNs    float64 // Σ request-side rungs per request (traced)
	flattenNs float64
	thinNs    float64
	submitUs  float64
	replayNs  float64 // Log.Replay per tuple
	// Durable sessions only: the WAL's part of one push (append inside
	// ingest.push plus the commit barrier), and the barrier alone.
	walPushNs       float64
	commitNsPerPush float64
	p               *pipeline
}

func runTrace(ctx context.Context, ev *env, w workload, seed int64) (*traceResult, error) {
	dir, err := ev.tempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walDir := func(name string) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(dir, name)
	}
	n := w.traceEpochs

	// A short discarded pass fills pools and caches. Then one pass feeds an
	// untraced pipeline, a traced one and the ServeHTTP twin side by side.
	off := &tracer{}
	tr := &tracer{on: true, spans: make([]span, 0, 1<<16)}
	warm, err := newPipeline(w, seed, off, walDir("wal-warm"))
	if err != nil {
		return nil, err
	}
	_, err = replayInProcess(w, seed, max(n/4, 2), nil, warm)
	warm.close()
	if err != nil {
		return nil, fmt.Errorf("warm-up in-process pass: %w", err)
	}
	pOff, err := newPipeline(w, seed, off, walDir("wal-off"))
	if err != nil {
		return nil, err
	}
	defer pOff.close()
	p, err := newPipeline(w, seed, tr, walDir("wal-on"))
	if err != nil {
		return nil, err
	}
	defer p.close()
	twin, err := newServeTwin(w, seed, walDir("wal-serve"))
	if err != nil {
		return nil, err
	}
	defer twin.close()
	busy, err := replayInProcess(w, seed, n, twin, pOff, p)
	if err != nil {
		return nil, fmt.Errorf("in-process pass: %w", err)
	}
	plain, traced := busy[0], busy[1]
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := &traceResult{p: p, spans: len(tr.spans), perTuple: map[string]float64{}, perReq: map[string]float64{}}
	res.overhead = (traced.Seconds() - plain.Seconds()) / plain.Seconds()
	total, self := layerTimes(tr.spans)
	for name, ns := range self {
		res.perTuple[name] = float64(ns) / float64(p.ingested)
	}
	for name, ns := range total {
		res.perReq[name] = float64(ns) / float64(p.requests)
	}
	for _, name := range []string{"wire.decode", "server.admit", "ingest.push", "server.ack"} {
		res.rungNs += res.perReq[name]
	}
	if w.durable {
		// wal.append sits inside ingest.push; only the commit adds to it.
		res.commitNsPerPush = float64(spansUnder(tr.spans, "wal.commit", "req")) / float64(p.requests)
		res.rungNs += res.commitNsPerPush
		res.walPushNs = res.commitNsPerPush + float64(spansUnder(tr.spans, "wal.append", "ingest.push"))/float64(p.requests)
	}

	res.serveNs = twin.nsPerReq()
	if res.flattenNs, res.thinNs, err = operatorPass(w, seed); err != nil {
		return nil, err
	}
	if res.submitUs, err = plannerPass(w, seed); err != nil {
		return nil, err
	}
	if w.durable {
		p.walBytes = p.log.Stats().Bytes
		if res.replayNs, err = replayPass(walDir("wal-on"), p); err != nil {
			return nil, err
		}
	}

	out := filepath.Join(ev.outDir, "trace-"+w.name+".json")
	if err := writeSpans(out, tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// spansUnder sums the spans of one name whose parent span has the given name.
func spansUnder(spans []span, name, parent string) int64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name && s.Parent >= 0 && spans[s.Parent].Name == parent {
			ns += s.End - s.Start
		}
	}
	return ns
}

// replayPass closes the traced pass's log and times wal.Log.Replay over it.
func replayPass(dir string, p *pipeline) (nsPerTuple float64, err error) {
	if err := p.log.Close(); err != nil {
		return 0, err
	}
	log, err := wal.Open(wal.Config{Dir: dir, ReadOnly: true})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	tuples := 0
	start := time.Now()
	if _, err := log.Replay(func(r *wal.Record) error {
		tuples += len(r.Tuples)
		return nil
	}); err != nil {
		return 0, err
	}
	if tuples != p.ingested {
		return 0, fmt.Errorf("bench: WAL replay saw %d tuples, %d were pushed", tuples, p.ingested)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(tuples), nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
