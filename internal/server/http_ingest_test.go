package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
)

func TestHTTPIngestUnary(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()

	// Simulated sessions refuse pushes with 409.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"sim"}`, 201, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/sim/ingest",
		`{"attr":"co2","observations":[{"t":0.1,"x":1,"y":1,"value":1}]}`, http.StatusConflict, nil)

	// Bad specs are 400s — including negative overrides, which would
	// otherwise be silently ignored by the factory.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"bad","source":"psychic"}`, 400, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"bad","source":"mixed","latePolicy":"eventually"}`, 400, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"bad","source":"mixed","ingestBuffer":-5}`, 400, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"bad","source":"mixed","tolerance":-1}`, 400, nil)

	// A mixed session accepts pushes and surfaces the accounting.
	var sj client.Session
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"mx","source":"mixed","tolerance":0.5,"latePolicy":"next"}`, 201, &sj)
	if sj.Source != "mixed" || sj.Watermark != nil {
		t.Fatalf("created = %+v", sj)
	}
	var ack client.Ack
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/mx/ingest",
		`{"attr":"co2","watermark":2,"observations":[
			{"id":1,"t":0.2,"x":1,"y":1,"value":3},
			{"id":2,"t":0.4,"x":2,"y":2,"value":4},
			{"t":0.6,"x":99,"y":1,"value":5}]}`, 200, &ack)
	if ack.Accepted != 2 || ack.Rejected != 1 || ack.Pending != 2 {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.Watermark == nil || *ack.Watermark != 2 {
		t.Fatalf("ack watermark = %v, want 2", ack.Watermark)
	}
	// Missing attr everywhere is a 400.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/mx/ingest",
		`{"observations":[{"t":0.1,"x":1,"y":1}]}`, 400, nil)

	// Counters land in the session JSON and /status with documented keys.
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/mx", "", 200, &sj)
	if sj.Ingested != 2 || sj.Watermark == nil || *sj.Watermark != 2 {
		t.Fatalf("session = %+v", sj)
	}
	// Every client.Status field but the nullable ones is rendered, and
	// nothing else is: a strict decode is the key check.
	var st client.Status
	decodeStrict(t, answer(t, "GET", ts.URL+"/v1/sessions/mx/status", 200), &st)
	if st.Source != "mixed" || st.Ingested != 2 || st.Watermark == nil || *st.Watermark != 2 {
		t.Fatalf("status = %+v", st)
	}

	// A push racing a drain (queue closed, session still resolvable) is a
	// retryable 503, not a 400 that would make producers discard the batch.
	srv2, hs2 := newManagerTestServer(t)
	doJSON(t, srv2.Client(), "POST", srv2.URL+"/v1/sessions", `{"name":"drain","source":"external"}`, 201, nil)
	// Reach behind the façade: close the engine's queue without removing
	// the session, the mid-shutdown window.
	mgrSess, err := hs2.manager.Get("drain")
	if err != nil {
		t.Fatal(err)
	}
	_ = mgrSess.Engine.Shutdown()
	doJSON(t, srv2.Client(), "POST", srv2.URL+"/v1/sessions/drain/ingest",
		`{"attr":"co2","observations":[{"t":0.1,"x":1,"y":1,"value":1}]}`, http.StatusServiceUnavailable, nil)
}

func TestHTTPIngestNDJSONStreaming(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"ext","source":"external"}`, 201, nil)

	lines := strings.Join([]string{
		`{"attr":"co2","observations":[{"id":1,"t":0.1,"x":1,"y":1,"value":1}]}`,
		`{"attr":"co2","observations":[{"id":2,"t":0.5,"x":2,"y":2,"value":2},{"id":3,"t":0.9,"x":3,"y":3,"value":3}]}`,
		`{"watermark":1}`,
	}, "\n")
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/ext/ingest", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var acks []client.Ack
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var a client.Ack
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("ack line %q: %v", sc.Text(), err)
		}
		acks = append(acks, a)
	}
	if len(acks) != 3 {
		t.Fatalf("got %d acks, want one per batch line: %+v", len(acks), acks)
	}
	if acks[0].Accepted != 1 || acks[1].Accepted != 2 || acks[2].Accepted != 0 {
		t.Fatalf("acks = %+v", acks)
	}
	if acks[2].Watermark == nil || *acks[2].Watermark != 1 {
		t.Fatalf("final watermark = %v", acks[2].Watermark)
	}

	// The pushed epoch closes: a manual step fabricates it.
	var step client.StepResult
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/ext/step?n=3", "", 200, &step)
	if step.Stepped != 1 || !step.Waiting {
		t.Fatalf("step = %+v, want 1 stepped then waiting", step)
	}
}

// TestHTTPIngestE2EMixed is the acceptance scenario over the wire: an
// external producer pushes observations into a mixed session and a
// streaming reader gets the query's acquired stream back, all over HTTP.
// Run under -race in CI with concurrent pushers (see ci.yml).
func TestHTTPIngestE2EMixed(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"mx","source":"mixed","tolerance":0.25}`, 201, nil)
	var q client.Query
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/mx/queries", "ACQUIRE co2 FROM RECT(0,0,8,8) RATE 50", 201, &q)

	// Streaming reader attached before any data exists.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sreq, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sessions/mx/results/"+q.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := c.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	// Concurrent pushers: 4 producers, disjoint ID ranges, interleaved
	// event times across [0, 3).
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				o := client.Observation{
					ID: uint64(1000*p + i + 1), T: float64((i*4+p)%120) / 40,
					X: float64(i%8) + 0.3, Y: float64(p*2) + 0.3, Value: 1,
				}
				body, _ := json.Marshal(client.Batch{Attr: "co2", Observations: []client.Observation{o}})
				resp, err := c.Post(ts.URL+"/v1/sessions/mx/ingest", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(p)
	}
	wg.Wait()
	// Close the stream's event time and fabricate the epochs while the
	// reader is attached.
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/mx/ingest", `{"watermark":3}`, 200, nil)
	doJSON(t, c, "POST", ts.URL+"/v1/sessions/mx/step?n=3", "", 200, nil)

	seen := 0
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() && seen < 20 {
		line := sc.Text()
		if strings.Contains(line, "dropped") {
			continue
		}
		var tp client.Tuple
		if err := json.Unmarshal([]byte(line), &tp); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if tp.Attr != "co2" {
			t.Fatalf("foreign tuple on stream: %s", line)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("streaming reader saw no externally fed tuples")
	}
	cancel()

	var st client.Status
	doJSON(t, c, "GET", ts.URL+"/v1/sessions/mx/status", "", 200, &st)
	if st.Ingested != 120 {
		t.Fatalf("ingested = %v, want 120", st.Ingested)
	}
	if st.Epochs != 3 {
		t.Fatalf("epochs = %v", st.Epochs)
	}
}
