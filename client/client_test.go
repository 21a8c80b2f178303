package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	craqr "repro"
	"repro/client"
)

// newTestServer hosts a manager-backed craqrd façade for the client to
// talk to.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	region := craqr.NewRect(0, 0, 8, 8)
	template := craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        200,
			Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.02},
		},
		Seed:      1,
		Retention: 4096,
	}
	fields := func() (map[string]craqr.Field, error) {
		rain, err := craqr.NewRainField(region, []craqr.Storm{{X0: 2, Y0: 2, VX: 0.1, VY: 0, Radius: 2}})
		if err != nil {
			return nil, err
		}
		return map[string]craqr.Field{"rain": rain}, nil
	}
	m, err := craqr.NewManager(craqr.ManagerConfig{NewEngine: craqr.NewEngineFactory(template, fields)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	h, err := craqr.NewManagerHTTPServer(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func TestClientSessionQueryResults(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	sess, err := c.CreateSession(ctx, client.SessionSpec{Name: "a", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Name != "a" || sess.Source != "simulated" {
		t.Fatalf("session = %+v", sess)
	}
	if _, err := c.CreateSession(ctx, client.SessionSpec{Name: "a"}); err == nil {
		t.Fatal("duplicate create should fail")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
			t.Fatalf("duplicate create error = %v", err)
		}
	}
	q, err := c.Submit(ctx, "a", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "rain" || q.Rate != 5 {
		t.Fatalf("query = %+v", q)
	}
	step, err := c.Step(ctx, "a", 5)
	if err != nil {
		t.Fatal(err)
	}
	if step.Stepped != 5 || step.Waiting {
		t.Fatalf("step = %+v", step)
	}
	page, err := c.Results(ctx, "a", q.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Tuples) == 0 || page.Dropped != 0 {
		t.Fatalf("page = %d tuples, %d dropped", len(page.Tuples), page.Dropped)
	}
	st, err := c.Status(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != "simulated" {
		t.Fatalf("status source = %v", st.Source)
	}
	names, err := c.Sessions(ctx)
	if err != nil || len(names) != 1 {
		t.Fatalf("sessions = %v, %v", names, err)
	}
	if err := c.DeleteQuery(ctx, "a", q.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySession(ctx, "a"); err != nil {
		t.Fatal(err)
	}
}

// TestClientSessionSpecIsKnownToServer: the server refuses unknown spec
// fields, so every field client.SessionSpec can send must be one the server
// accepts — a fully populated spec creates a session, and the tri-state
// adaptiveRates arrives as sent.
func TestClientSessionSpecIsKnownToServer(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	on := true
	full := client.SessionSpec{
		Name: "full", Seed: 3, Retention: 64, Tick: "1h", Simulated: false, Pinned: true,
		Source: "mixed", IngestBuffer: 128, Tolerance: 0.5, LatePolicy: "next",
		AdaptiveRates:     &on,
		DisableDurability: true, SnapshotEvery: 8, FsyncPolicy: "never",
		Weight: 2, Limits: &client.TenantLimits{RateTuplesPerSec: 1000, RateBytesPerSec: 1e6, MaxQueries: 4, MaxQueueBytes: 1 << 20, MaxWALBytes: 1 << 20},
	}
	spec := reflect.ValueOf(full)
	for i := 0; i < spec.NumField(); i++ {
		if spec.Field(i).IsZero() && spec.Type().Field(i).Name != "Simulated" {
			t.Fatalf("test spec leaves %s unset; populate it so the server sees the field", spec.Type().Field(i).Name)
		}
	}
	sess, err := c.CreateSession(ctx, full)
	if err != nil {
		t.Fatalf("fully populated spec refused: %v", err)
	}
	if !sess.Adaptive || sess.Source != "mixed" || !sess.Pinned {
		t.Fatalf("session = %+v", sess)
	}
}

// TestClientIngestAndStream is the client-level acceptance loop: push
// observations into a mixed session over HTTP and read the acquired stream
// back concurrently.
func TestClientIngestAndStream(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := c.CreateSession(ctx, client.SessionSpec{Name: "mx", Source: "mixed", Tolerance: 0.25, LatePolicy: "next"}); err != nil {
		t.Fatal(err)
	}
	q, err := c.Submit(ctx, "mx", "ACQUIRE co2 FROM RECT(0,0,8,8) RATE 40")
	if err != nil {
		t.Fatal(err)
	}

	rs, err := c.StreamResults(ctx, "mx", q.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var streamed int
	go func() {
		defer wg.Done()
		for streamed < 10 {
			tp, err := rs.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && ctx.Err() == nil {
					t.Errorf("stream: %v", err)
				}
				return
			}
			if tp.Attr != "co2" {
				t.Errorf("foreign tuple %+v", tp)
				return
			}
			streamed++
		}
	}()

	var obss []client.Observation
	for i := 0; i < 80; i++ {
		obss = append(obss, client.Observation{
			ID: uint64(i + 1), T: float64(i) / 40,
			X: float64(i%8) + 0.4, Y: float64(i%6) + 0.4, Value: 400 + float64(i),
		})
	}
	ack, err := c.Ingest(ctx, "mx", client.Batch{Attr: "co2", Observations: obss})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 80 || ack.Rejected != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	if _, err := c.AssertWatermark(ctx, "mx", 2); err != nil {
		t.Fatal(err)
	}
	step, err := c.Step(ctx, "mx", 2)
	if err != nil {
		t.Fatal(err)
	}
	if step.Stepped != 2 {
		t.Fatalf("step = %+v", step)
	}
	wg.Wait()
	if streamed < 10 {
		t.Fatalf("streamed %d tuples", streamed)
	}
	sess, err := c.Session(ctx, "mx")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Ingested != 80 || sess.Watermark == nil || *sess.Watermark != 2 {
		t.Fatalf("session accounting = %+v", sess)
	}
}

func TestClientIngestStreamNDJSON(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := c.CreateSession(ctx, client.SessionSpec{Name: "ext", Source: "external"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenIngest(ctx, "ext")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		batch := client.Batch{Attr: "co2", Observations: []client.Observation{
			{ID: uint64(i + 1), T: float64(i) * 0.3, X: 1, Y: 1, Value: 1},
		}}
		if err := st.Send(batch); err != nil {
			t.Fatal(err)
		}
	}
	wm := 1.0
	if err := st.Send(client.Batch{Watermark: &wm}); err != nil {
		t.Fatal(err)
	}
	acks, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != 4 {
		t.Fatalf("got %d acks, want one per batch", len(acks))
	}
	total := 0
	for _, a := range acks {
		total += a.Accepted
	}
	if total != 3 {
		t.Fatalf("accepted %d, want 3", total)
	}
	// Pushing into a simulated session fails loudly.
	if _, err := c.CreateSession(ctx, client.SessionSpec{Name: "sim"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "sim", client.Batch{Attr: "x", Observations: []client.Observation{{T: 1, X: 1, Y: 1}}}); err == nil {
		t.Fatal("ingest into simulated session should fail")
	}
}

// flakyIngestServer answers the ingest route with fail503 consecutive 503s
// (carrying Retry-After) before succeeding.
func flakyIngestServer(t *testing.T, fail503 int) (*httptest.Server, *int32) {
	t.Helper()
	var calls int32
	h := http.NewServeMux()
	h.HandleFunc("POST /v1/sessions/{s}/ingest", func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		if int(n) <= fail503 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"ingest queue closed"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"accepted":2,"watermark":null,"pending":0}`))
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestIngestRetries503 proves Ingest rides out transient 503s: two refusals
// with Retry-After, then success — the caller sees only the final ack.
func TestIngestRetries503(t *testing.T) {
	ts, calls := flakyIngestServer(t, 2)
	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	ack, err := c.Ingest(context.Background(), "s", client.Batch{Attr: "x"})
	if err != nil {
		t.Fatalf("ingest should have retried through the 503s: %v", err)
	}
	if ack.Accepted != 2 {
		t.Fatalf("ack = %+v, want the post-retry ack", ack)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 refusals + success)", got)
	}
}

// TestIngestRetriesMixed429And503 proves one retry loop rides out an
// interleaving of throttling (429) and restart (503) refusals: the client
// treats both as transient and the caller sees only the final ack.
func TestIngestRetriesMixed429And503(t *testing.T) {
	var calls int32
	h := http.NewServeMux()
	h.HandleFunc("POST /v1/sessions/{s}/ingest", func(w http.ResponseWriter, r *http.Request) {
		switch atomic.AddInt32(&calls, 1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server: rate limited (tuple rate): retry after 1s"}`))
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"ingest queue closed"}`))
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"accepted":1,"watermark":null,"pending":0}`))
		}
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	ack, err := c.Ingest(context.Background(), "s", client.Batch{Attr: "x"})
	if err != nil {
		t.Fatalf("ingest should have retried through 429 then 503: %v", err)
	}
	if ack.Accepted != 1 {
		t.Fatalf("ack = %+v, want the post-retry ack", ack)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (429 + 503 + success)", got)
	}
}

// TestIngestRetryExhaustion: a persistent 503 surfaces as an APIError with
// the server's Retry-After hint after MaxAttempts tries.
func TestIngestRetryExhaustion(t *testing.T) {
	ts, calls := flakyIngestServer(t, 1000)
	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err := c.Ingest(context.Background(), "s", client.Batch{Attr: "x"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
		t.Fatalf("err = %v, want a 503 APIError", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s from the header", apiErr.RetryAfter)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts", got)
	}
}

// TestIngestRetryHonorsContext: cancellation mid-backoff aborts the wait
// immediately instead of sleeping out the schedule.
func TestIngestRetryHonorsContext(t *testing.T) {
	ts, _ := flakyIngestServer(t, 1000)
	c := client.New(ts.URL)
	// Long backoff so only cancellation can end the wait promptly.
	c.Retry = client.RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := c.Ingest(ctx, "s", client.Batch{Attr: "x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep did not abort", elapsed)
	}
}

// TestNonRetryableErrorsFailFast: a 400 is the producer's bug, never
// retried.
func TestNonRetryableErrorsFailFast(t *testing.T) {
	var calls int32
	h := http.NewServeMux()
	h.HandleFunc("POST /v1/sessions/{s}/ingest", func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"bad batch"}`))
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	if _, err := c.Ingest(context.Background(), "s", client.Batch{}); err == nil {
		t.Fatal("400 must surface")
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retries on 4xx)", got)
	}
}
