package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stream"
)

// api is the generator's view of one daemon: one keep-alive connection for
// the pusher, one for the subscriber's stream, and a control client for
// set-up and scraping (never used inside a measured window).
type api struct {
	base    string
	pusher  *http.Client
	stream  *http.Client
	control *http.Client
}

func newAPI(base string) *api {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	}
	return &api{base: base, pusher: one(), stream: one(), control: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
}

func (a *api) close() {
	for _, c := range []*http.Client{a.pusher, a.stream, a.control} {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// call issues one control-plane request and decodes a JSON answer into out
// (nil skips decoding). Any status outside 2xx is an error carrying the body.
func (a *api) call(ctx context.Context, method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := a.control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("bench: %s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("bench: %s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// createSession makes an external-source session on a back-to-back clock
// (epochs run as soon as the watermark allows) and submits the probe and the
// workload's resident queries one statement at a time, as a client would.
func (a *api) createSession(ctx context.Context, w workload, name string, seed int64, durable bool) error {
	spec := map[string]any{
		"name": name, "seed": seed, "simulated": true, "pinned": true,
		"source": "external", "retention": w.retention,
		"ingestBuffer":      4 * w.tuplesPerEpoch(),
		"disableDurability": !durable,
	}
	if durable {
		spec["fsyncPolicy"] = "batch"
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if err := a.call(ctx, http.MethodPost, "/v1/sessions", contentTypeJSON, body, nil); err != nil {
		return err
	}
	for i, stmt := range w.statements() {
		var q struct {
			ID string `json:"id"`
		}
		if err := a.call(ctx, http.MethodPost, "/v1/sessions/"+name+"/queries", "text/plain", []byte(stmt), &q); err != nil {
			return err
		}
		if i == 0 && q.ID != probeQueryID {
			return fmt.Errorf("bench: probe query got id %q, want %s", q.ID, probeQueryID)
		}
	}
	return nil
}

// status is the part of /v1/sessions/{s}/status the benchmark scrapes.
type status struct {
	Epochs           int            `json:"epochs"`
	Operators        map[string]int `json:"operators"`
	Subplans         int            `json:"subplans"`
	SharedQueries    int            `json:"sharedQueries"`
	PlanCacheHits    uint64         `json:"planCacheHits"`
	PlanCacheMisses  uint64         `json:"planCacheMisses"`
	RetentionDrops   uint64         `json:"retentionDrops"`
	Ingested         uint64         `json:"ingested"`
	IngestDropped    uint64         `json:"ingestDropped"`
	LateDropped      uint64         `json:"lateDropped"`
	IngestDuplicates uint64         `json:"ingestDuplicates"`
	ClockError       string         `json:"clockError"`
	Sched            *struct {
		TotalWaitMs float64 `json:"totalWaitMs"`
		P50WaitMs   float64 `json:"p50WaitMs"`
	} `json:"sched"`
	Throttled struct {
		Batches uint64 `json:"batches"`
	} `json:"throttled"`
	Durability *struct {
		WALSegments int    `json:"walSegments"`
		WALRecords  uint64 `json:"walRecords"`
	} `json:"durability"`
}

func (a *api) status(ctx context.Context, session string) (status, error) {
	var st status
	err := a.call(ctx, http.MethodGet, "/v1/sessions/"+session+"/status", "", nil, &st)
	return st, err
}

// probeTotal is the probe stream's end cursor: how many tuples the daemon
// has fabricated for Q1 so far.
func (a *api) probeTotal(ctx context.Context, session string) (uint64, error) {
	var page struct {
		Total uint64 `json:"total"`
	}
	err := a.call(ctx, http.MethodGet, "/v1/sessions/"+session+"/results/"+probeQueryID+"?cursor=18446744073709551615&limit=1", "", nil, &page)
	return page.Total, err
}

// ack is one parsed ingest acknowledgement.
type ack struct {
	accepted, dropped, lateDropped, rejected, duplicates, pending int
}

// ackField reads the integer after "key": in an ack body; absent keys are 0
// (duplicates is omitempty on the wire).
func ackField(body []byte, key string) int {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range body[i+len(key)+3:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func parseAck(body []byte) ack {
	return ack{
		accepted:    ackField(body, "accepted"),
		dropped:     ackField(body, "dropped"),
		lateDropped: ackField(body, "lateDropped"),
		rejected:    ackField(body, "rejected"),
		duplicates:  ackField(body, "duplicates"),
		pending:     ackField(body, "pending"),
	}
}

// pusher is the one push connection plus what it has observed.
type pusher struct {
	a       *api
	url     string
	ctype   string
	asJSON  bool
	body    []byte // reused request buffer
	ackBuf  bytes.Buffer
	sent    int // tuples sent
	accept  int // Σ accepted
	pendMax int

	requests int
	failed   int
	firstErr error

	record bool        // inside the measured window
	lat    []float64   // ack latencies, seconds
	wmSent []time.Time // wmSent[e]: send time of epoch e's watermark frame
	waitS  float64     // seconds the pusher spent parked on the gate
}

func newPusher(a *api, session string, asJSON bool) *pusher {
	return &pusher{a: a, url: a.base + "/v1/sessions/" + session + "/ingest", asJSON: asJSON, ctype: contentType(asJSON)}
}

func (p *pusher) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// post sends the encoded body, reads the ack to its end and returns the send
// time and latency (send → ack body read). A non-2xx answer or an ack that
// did not accept every tuple is a failed operation.
func (p *pusher) post(ctx context.Context, tuples int) (time.Time, float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(p.body))
	if err != nil {
		return time.Time{}, 0, err
	}
	req.Header.Set("Content-Type", p.ctype)
	start := time.Now()
	resp, err := p.a.pusher.Do(req)
	if err != nil {
		return start, 0, fmt.Errorf("bench: push: %w", err)
	}
	p.ackBuf.Reset()
	_, err = p.ackBuf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start).Seconds()
	if err != nil {
		return start, lat, fmt.Errorf("bench: reading ack: %w", err)
	}
	p.requests++
	p.sent += tuples
	if resp.StatusCode/100 != 2 {
		p.fail(fmt.Errorf("bench: push refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(p.ackBuf.Bytes())))
		return start, lat, nil
	}
	ak := parseAck(p.ackBuf.Bytes())
	p.accept += ak.accepted
	p.pendMax = max(p.pendMax, ak.pending)
	if ak.accepted != tuples || ak.dropped+ak.lateDropped+ak.rejected+ak.duplicates > 0 {
		p.fail(fmt.Errorf("bench: ack did not accept the batch: %s", bytes.TrimSpace(p.ackBuf.Bytes())))
	}
	return start, lat, nil
}

// pushEpoch sends epoch e behind the gate: it starts only once the first
// probe tuple of epoch e−2 has reached the subscriber, so at most two epochs
// are ever outstanding and the backlog between ack and epoch stays bounded.
// whole pushes the epoch as one batch (check (b)'s other-codec replay).
func (p *pusher) pushEpoch(ctx context.Context, c *corpus, sub *subscriber, e int, whole bool) error {
	if e >= 2 {
		gate := time.Now()
		if _, err := sub.waitEpoch(ctx, e-2); err != nil {
			return err
		}
		if p.record {
			p.waitS += time.Since(gate).Seconds()
		}
	}
	frames := c.w.framesPerEpoch
	if whole {
		frames = 1
	}
	for f := 0; f < frames; f++ {
		var (
			tuples []stream.Tuple
			wm     float64
			err    error
		)
		if whole {
			tuples, wm = c.epoch(e), float64(e+1)
		} else {
			tuples, wm = c.frame(e, f)
		}
		if p.body, err = encode(p.body[:0], p.asJSON, tuples, wm); err != nil {
			return err
		}
		sent, lat, err := p.post(ctx, len(tuples))
		if err != nil {
			return err
		}
		if p.record {
			p.lat = append(p.lat, lat)
		}
		if !math.IsNaN(wm) {
			for len(p.wmSent) <= e {
				p.wmSent = append(p.wmSent, time.Time{})
			}
			p.wmSent[e] = sent
		}
	}
	return nil
}

// roundResult is everything one round measured.
type roundResult struct {
	// End-to-end values as the clock read them.
	setupS, goodput, ackP50Ms, freshP50Ms, cpuUsPerTuple, rssMB, recoveryS float64
	// host and hostSetup are the host's speed during the window and during
	// set-up: the generator's own CPU time per pushed tuple — frozen code in
	// this package doing fixed work per tuple, at the same instants and on
	// the same cores as the daemon — over the workload's reference value.
	// 1 is the machine that defined the benchmark at its quiet speed; 1.3
	// means a CPU-second bought 30% less than that.
	host, hostSetup float64

	// Run-layer explanations.
	ackP99Ms, freshP90Ms                 float64
	ackMeanNs                            float64
	ackSamples, freshSamples             int
	gateWaitFrac, epochsPerS, deliveredS float64
	serverCPUUtil, genCPUUtil            float64
	windowEpochs, windowTuples           int
	recoverTuplesPerS                    float64

	st        status
	pendMax   int
	attempted int
	failed    int
	calibNs   float64
	noisyHost bool
	problems  []string // correctness-check failures
	paced     *pacedResult
}

// endToEnd returns the gated metrics at reference host speed. This machine's
// speed moves by tens of percent for minutes at a time (see README.md), far
// more than any bound, so times are divided and rates multiplied by the host
// factor measured alongside them. A recovering daemon works alone, with the
// generator idle, and its time does not follow the factor (see runRound);
// memory does not depend on speed. Both stay as read.
func (r *roundResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":                 r.setupS / r.hostSetup,
		"goodput_tuples_per_s":    r.goodput * r.host,
		"ack_p50_ms":              r.ackP50Ms / r.host,
		"freshness_p50_ms":        r.freshP50Ms / r.host,
		"server_cpu_us_per_tuple": r.cpuUsPerTuple / r.host,
		"server_rss_mb":           r.rssMB,
		"recovery_s":              r.recoveryS,
	}
}

func (r *roundResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// coldStarts is how many kill → restart → re-create cycles a non-durable
// round takes recovery_s over.
const coldStarts = 5

// roundOpts selects the optional phases of a round.
type roundOpts struct {
	window   time.Duration
	refCheck bool          // run check (b): replay a prefix in the other codec
	pacedFor time.Duration // > 0: follow the window with the open-loop phase
}

// runRound is one full round on a fresh daemon: set-up (timed), the gated
// closed-loop window (timed), the correctness checks, then the crash and
// recovery (timed), and teardown. It never leaves a child or a temp dir
// behind, whatever path it returns on.
func runRound(ctx context.Context, ev *env, w workload, seed int64, opts roundOpts) (res *roundResult, err error) {
	// A round that takes more than three times its expected length has
	// wedged: fail it rather than hang the invocation.
	ctx, cancel := context.WithTimeout(ctx, 3*(opts.window+20*time.Second))
	defer cancel()

	res = &roundResult{}
	calibBefore := calibrate()

	dir, err := ev.tempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(dir, "data")
	}

	// --- set-up: exec → healthz → session + queries → subscriber → warm-up.
	d, err := ev.startDaemon(ctx, dir, dataDir, 0)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }() // d is reassigned across the crash
	a := newAPI(d.url)
	defer a.close()
	if err := a.createSession(ctx, w, sessionName, seed, w.durable); err != nil {
		return nil, err
	}
	sub, err := subscribe(ctx, a.stream, a.base, sessionName, 0, w.refEpochs)
	if err != nil {
		return nil, err
	}
	defer func() { sub.close() }()
	c := newCorpus(w, seed)
	p := newPusher(a, sessionName, w.json)
	e := 0
	genWarm := selfCPU()
	for ; e < w.warmupEpochs; e++ {
		if err := p.pushEpoch(ctx, c, sub, e, false); err != nil {
			return nil, fmt.Errorf("warm-up epoch %d: %w", e, err)
		}
	}
	if _, err := sub.waitEpoch(ctx, e-1); err != nil {
		return nil, fmt.Errorf("warm-up delivery: %w", err)
	}
	res.setupS = time.Since(d.start).Seconds()
	res.hostSetup = (selfCPU() - genWarm) * 1e6 / float64(p.sent) / w.genRefUs

	// --- the measured window: whole epochs until the time is up.
	first := e
	procStart, err := d.proc()
	if err != nil {
		return nil, err
	}
	genStart := selfCPU()
	p.record = true
	p.lat = make([]float64, 0, 1<<16)
	start := time.Now()
	for time.Since(start) < opts.window {
		if err := p.pushEpoch(ctx, c, sub, e, false); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		e++
	}
	end, err := sub.waitEpoch(ctx, e-1)
	if err != nil {
		return nil, fmt.Errorf("window delivery: %w", err)
	}
	p.record = false
	procEnd, err := d.proc()
	if err != nil {
		return nil, err
	}
	genEnd := selfCPU()
	last := e
	wall := end.Sub(start).Seconds()
	res.windowEpochs = last - first
	res.windowTuples = res.windowEpochs * w.tuplesPerEpoch()
	res.goodput = float64(res.windowTuples) / wall
	res.cpuUsPerTuple = (procEnd.cpuS - procStart.cpuS) * 1e6 / float64(res.windowTuples)
	res.rssMB = procEnd.hwmMB
	res.serverCPUUtil = (procEnd.cpuS - procStart.cpuS) / wall
	res.genCPUUtil = (genEnd - genStart) / wall
	res.host = (genEnd - genStart) * 1e6 / float64(res.windowTuples) / w.genRefUs
	res.gateWaitFrac = p.waitS / wall
	res.epochsPerS = float64(res.windowEpochs) / wall

	// --- quiesce, then the checks.
	total, err := a.probeTotal(ctx, sessionName)
	if err != nil {
		return nil, err
	}
	if err := sub.waitTotal(ctx, total); err != nil {
		return nil, fmt.Errorf("draining the probe stream: %w", err)
	}
	snap := sub.snapshot()
	if snap.err != nil {
		return nil, snap.err
	}
	fresh := make([]float64, 0, res.windowEpochs)
	delivered := 0
	for ep := first; ep < last; ep++ {
		fresh = append(fresh, snap.first[ep].Sub(p.wmSent[ep]).Seconds()*1e3)
		delivered += snap.counts[ep]
	}
	res.deliveredS = float64(delivered) / wall
	latMs := make([]float64, len(p.lat))
	sum := 0.0
	for i, l := range p.lat {
		latMs[i] = l * 1e3
		sum += l
	}
	res.ackMeanNs = sum / float64(len(p.lat)) * 1e9
	res.ackSamples, res.freshSamples = len(latMs), len(fresh)
	res.ackP50Ms, res.ackP99Ms = quantile(latMs, 0.50), quantile(latMs, 0.99)
	res.freshP50Ms, res.freshP90Ms = quantile(fresh, 0.50), quantile(fresh, 0.90)

	if res.st, err = a.status(ctx, sessionName); err != nil {
		return nil, err
	}
	res.pendMax = p.pendMax
	// (a) every tuple sent was accepted, ingested and its epoch closed.
	if p.accept != p.sent || uint64(p.sent) != res.st.Ingested {
		res.problemf("(a) sent %d tuples, acks accepted %d, status ingested %d", p.sent, p.accept, res.st.Ingested)
	}
	if res.st.Epochs != last {
		res.problemf("(a) status reports %d epochs, pushed %d", res.st.Epochs, last)
	}
	if res.st.ClockError != "" {
		res.problemf("(a) session clock halted: %s", res.st.ClockError)
	}
	// (c) the paper's claim: the probe delivers λ·area·epoch tuples per epoch,
	// within 5% over the window — or within four standard errors of a Poisson
	// count when the window is too short (the smoke test) for 5% to be safe.
	want := w.probeRate * regionArea * epochLength
	tol := math.Max(0.05, 4/math.Sqrt(want*float64(res.windowEpochs)))
	if got := float64(delivered) / float64(res.windowEpochs); math.Abs(got-want) > tol*want {
		res.problemf("(c) probe delivered %.1f tuples/epoch over %d epochs, want %.1f ±%.1f%%", got, res.windowEpochs, want, tol*100)
	}
	if snap.dropped > 0 {
		res.problemf("result stream reported %d dropped tuples", snap.dropped)
		p.failed++
	}
	// (b) the same prefix through the other codec fabricates the same bytes.
	if opts.refCheck {
		if msg := refCheck(ctx, a, w, seed, snap); msg != "" {
			res.problemf("(b) %s", msg)
		}
	}
	if opts.pacedFor > 0 {
		pr, err := runPaced(ctx, a, w, c, sub, p, last, opts.pacedFor)
		if err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		res.paced = pr
		if snap = sub.snapshot(); snap.err != nil {
			return nil, snap.err
		}
		last = pr.lastEpoch
	}
	res.attempted = p.requests + last
	res.failed = p.failed
	if p.firstErr != nil {
		res.problemf("%d failed operations, first: %v", p.failed, p.firstErr)
	}

	// --- crash and recovery.
	sub.close()
	port := d.port
	d.kill()
	a.close() // drop the dead daemon's keep-alive connections
	if w.durable {
		if d, err = ev.startDaemon(ctx, dir, dataDir, port); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := checkRecovered(ctx, a, last); err != nil {
			return nil, err
		}
		res.recoveryS = time.Since(d.start).Seconds()
		res.recoverTuplesPerS = float64(p.sent) / res.recoveryS
		if msg := tailCheck(ctx, a, snap); msg != "" {
			res.problemf("(d) %s", msg)
		}
	} else {
		// Nothing survives a non-durable crash: recovery is the cold start
		// plus re-creating the session and its queries. That is tens of
		// milliseconds with a floor set by the code and a tail set by the
		// host's exec and page-cache luck; the floor is what a code change
		// moves, so take the fastest of several crashes. The daemon starts
		// alone (time as read);
		// generator and daemon re-create the session together, like the
		// window's traffic, so that part is taken at the window's host speed.
		res.recoveryS = math.Inf(1)
		for i := 0; i < coldStarts; i++ {
			d.kill()
			a.close()
			if d, err = ev.startDaemon(ctx, dir, dataDir, port); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			up := time.Since(d.start).Seconds()
			if err := a.createSession(ctx, w, sessionName, seed, false); err != nil {
				return nil, fmt.Errorf("re-creating the session: %w", err)
			}
			res.recoveryS = min(res.recoveryS, up+(time.Since(d.start).Seconds()-up)/res.host)
		}
	}

	calibAfter := calibrate()
	res.calibNs = (calibBefore + calibAfter) / 2
	res.noisyHost = math.Abs(calibAfter-calibBefore) > 0.10*math.Min(calibBefore, calibAfter)
	return res, nil
}

// checkRecovered polls the restarted daemon until session s reports it was
// recovered from its WAL with every acked epoch replayed.
func checkRecovered(ctx context.Context, a *api, epochs int) error {
	for {
		var sess struct {
			Recovered bool `json:"recovered"`
			Epochs    int  `json:"epochs"`
		}
		if err := a.call(ctx, http.MethodGet, "/v1/sessions/"+sessionName, "", nil, &sess); err != nil {
			return fmt.Errorf("recovered session: %w", err)
		}
		if sess.Recovered && sess.Epochs >= epochs {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("bench: session not recovered (recovered=%v epochs=%d, want %d): %w", sess.Recovered, sess.Epochs, epochs, ctx.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tailCheck is check (d): the recovered probe stream, re-read up to the
// pre-kill cursor, is byte-identical to what the subscriber received.
func tailCheck(ctx context.Context, a *api, snap subSnapshot) string {
	total, err := a.probeTotal(ctx, sessionName)
	if err != nil {
		return err.Error()
	}
	if total != snap.total {
		return fmt.Sprintf("recovered probe stream ends at cursor %d, subscriber had received %d", total, snap.total)
	}
	sub, err := subscribe(ctx, a.stream, a.base, sessionName, snap.total-uint64(snap.tailN), 0)
	if err != nil {
		return err.Error()
	}
	defer sub.close()
	if err := sub.waitTotal(ctx, uint64(snap.tailN)); err != nil {
		return err.Error()
	}
	got := sub.snapshot()
	if got.dropped > 0 || !bytes.Equal(got.tail, snap.tail) {
		return fmt.Sprintf("last %d recovered probe tuples differ from the delivered ones (dropped=%d)", snap.tailN, got.dropped)
	}
	return ""
}

// refCheck is check (b): a second session with the same seed and queries is
// fed the first n epochs in the other codec, one batch per epoch, and its
// probe stream must be byte-identical to the measured session's.
func refCheck(ctx context.Context, a *api, w workload, seed int64, want subSnapshot) string {
	n := w.refEpochs // every workload's warm-up alone is at least as long
	if err := a.createSession(ctx, w, refSession, seed, false); err != nil {
		return err.Error()
	}
	sub, err := subscribe(ctx, a.control, a.base, refSession, 0, w.refEpochs)
	if err != nil {
		return err.Error()
	}
	defer sub.close()
	c := newCorpus(w, seed)
	p := newPusher(a, refSession, !w.json)
	for e := 0; e < n; e++ {
		if err := p.pushEpoch(ctx, c, sub, e, true); err != nil {
			return err.Error()
		}
	}
	wantTuples := 0
	for e := 0; e < n; e++ {
		wantTuples += want.counts[e]
	}
	if err := sub.waitTotal(ctx, uint64(wantTuples)); err != nil {
		return fmt.Sprintf("ref session delivered too little: %v", err)
	}
	if p.firstErr != nil {
		return p.firstErr.Error()
	}
	got := sub.snapshot()
	gotTuples := 0
	for e := 0; e < n && e < len(got.counts); e++ {
		gotTuples += got.counts[e]
	}
	if gotTuples != wantTuples || got.refSum != want.refSum {
		return fmt.Sprintf("probe stream of the first %d epochs differs across codecs (%d vs %d tuples)", n, gotTuples, wantTuples)
	}
	if err := a.call(ctx, http.MethodDelete, "/v1/sessions/"+refSession, "", nil, nil); err != nil {
		return err.Error()
	}
	return ""
}

var errIncorrect = errors.New("bench: outputs are not correct")
