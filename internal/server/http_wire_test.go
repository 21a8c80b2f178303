package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/client"
	"repro/internal/sensors"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// acceptanceBatches is the fixed workload every transport variant pushes:
// explicit and gateway-assigned IDs, a per-observation attr override, an
// out-of-region rejection, watermark assertions and an out-of-order
// arrival (admitted: lateness is measured against closed epochs, and the
// epochs step after the pushes) — every accounting path the ack surfaces.
func acceptanceBatches() []wire.Batch {
	return []wire.Batch{
		{Attr: "rain", Watermark: math.NaN(), Tuples: []stream.Tuple{
			{ID: 101, Attr: "rain", T: 0.2, X: 1, Y: 1, Value: 1, Sensor: 7},
			{Attr: "rain", T: 0.4, X: 2, Y: 2, Value: 2, Sensor: -1},
			{Attr: "rain", T: 0.6, X: 99, Y: 1, Value: 3, Sensor: -1}, // out of region
			{ID: 103, Attr: "temp", T: 0.5, X: 3, Y: 3, Value: 21, Sensor: -1},
		}},
		{Attr: "rain", Watermark: 1, Tuples: []stream.Tuple{
			{Attr: "rain", T: 0.7, X: 4, Y: 4, Value: 4, Sensor: -1},
			{Attr: "rain", T: 0.9, X: 5, Y: 5, Value: 5, Sensor: -1},
		}},
		{Attr: "rain", Watermark: 2, Tuples: []stream.Tuple{
			{Attr: "rain", T: 1.5, X: 6, Y: 6, Value: 6, Sensor: -1},
			{Attr: "rain", T: 0.3, X: 1, Y: 2, Value: 7, Sensor: -1}, // out of order, pre-close: admitted
		}},
	}
}

// jsonIngestBody renders a batch as the documented JSON request body.
func jsonIngestBody(t *testing.T, b wire.Batch) []byte {
	t.Helper()
	type obs struct {
		ID     uint64  `json:"id,omitempty"`
		Attr   string  `json:"attr,omitempty"`
		T      float64 `json:"t"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Value  float64 `json:"value"`
		Sensor *int    `json:"sensor,omitempty"`
	}
	body := struct {
		Attr         string   `json:"attr,omitempty"`
		Watermark    *float64 `json:"watermark,omitempty"`
		Observations []obs    `json:"observations"`
	}{Attr: b.Attr}
	if !math.IsNaN(b.Watermark) {
		body.Watermark = &b.Watermark
	}
	for _, tp := range b.Tuples {
		o := obs{ID: tp.ID, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value}
		if tp.Attr != b.Attr {
			o.Attr = tp.Attr
		}
		if tp.Sensor >= 0 {
			s := tp.Sensor
			o.Sensor = &s
		}
		body.Observations = append(body.Observations, o)
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func binaryIngestBody(t *testing.T, b wire.Batch) []byte {
	t.Helper()
	frame, err := wire.AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func gzipBody(t *testing.T, data []byte) []byte {
	t.Helper()
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

// postRaw issues one request and returns (status, body).
func postRaw(t *testing.T, c *http.Client, url, ctype, encoding string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// splitAckLines splits a streaming response into its per-batch ack lines,
// keeping the trailing newline on each so unary bodies compare bytewise.
func splitAckLines(data []byte) [][]byte {
	var acks [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			acks = append(acks, data)
			break
		}
		acks = append(acks, data[:i+1])
		data = data[i+1:]
	}
	return acks
}

// TestIngestCodecEquivalence is the wire-path acceptance gate: the same
// logical batches pushed through every transport — unary JSON, gzip JSON,
// ndjson streaming, unary binary frames, gzip binary, streamed binary —
// must produce byte-identical acks, byte-identical retained query results,
// identical ingest accounting, and, after a restart, byte-identical
// WAL-replayed state.
func TestIngestCodecEquivalence(t *testing.T) {
	batches := acceptanceBatches()

	type pushFunc func(t *testing.T, c *http.Client, url string) [][]byte
	perBatch := func(render func(*testing.T, wire.Batch) []byte, ctype, encoding string) pushFunc {
		return func(t *testing.T, c *http.Client, url string) [][]byte {
			var acks [][]byte
			for _, b := range batches {
				body := render(t, b)
				if encoding == "gzip" {
					body = gzipBody(t, body)
				}
				status, data := postRaw(t, c, url, ctype, encoding, body)
				if status != http.StatusOK {
					t.Fatalf("push = %d: %s", status, data)
				}
				acks = append(acks, data)
			}
			return acks
		}
	}
	streamed := func(render func(*testing.T, wire.Batch) []byte, sep []byte, ctype string) pushFunc {
		return func(t *testing.T, c *http.Client, url string) [][]byte {
			var body []byte
			for _, b := range batches {
				body = append(body, render(t, b)...)
				body = append(body, sep...)
			}
			status, data := postRaw(t, c, url+"?stream=1", ctype, "", body)
			if status != http.StatusOK {
				t.Fatalf("stream push = %d: %s", status, data)
			}
			acks := splitAckLines(data)
			if len(acks) != len(batches) {
				t.Fatalf("stream returned %d acks, want %d: %q", len(acks), len(batches), data)
			}
			return acks
		}
	}
	variants := []struct {
		name string
		push pushFunc
	}{
		{"json", perBatch(jsonIngestBody, "application/json", "")},
		{"json+gzip", perBatch(jsonIngestBody, "application/json", "gzip")},
		{"ndjson", streamed(jsonIngestBody, []byte{'\n'}, "application/x-ndjson")},
		{"binary", perBatch(binaryIngestBody, wire.ContentTypeBinary, "")},
		{"binary+gzip", perBatch(binaryIngestBody, wire.ContentTypeBinary, "gzip")},
		{"binary-stream", streamed(binaryIngestBody, nil, wire.ContentTypeBinary)},
	}

	type outcome struct {
		acks    [][]byte
		results []byte
		status  string
		replay  string
	}
	runVariant := func(t *testing.T, push pushFunc) outcome {
		root := t.TempDir()
		template := testConfig()
		template.Source = SourceConfig{Mode: SourceExternal}
		template.Durability = DurabilityConfig{Dir: root, Fsync: wal.FsyncAlways}
		fields := testFields(t)
		factory := NewEngineFactory(template, func() (map[string]sensors.Field, error) { return fields, nil })
		m, err := NewManager(ManagerConfig{NewEngine: factory, DurabilityDir: root})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := NewManagerHTTPServer(m, "")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(hs)
		c := ts.Client()

		doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"acc","source":"external","tolerance":0.5}`, 201, nil)
		var q struct {
			ID string `json:"id"`
		}
		doJSON(t, c, "POST", ts.URL+"/v1/sessions/acc/queries",
			"ACQUIRE rain FROM RECT(0,0,8,8) RATE 3", 201, &q)

		out := outcome{acks: push(t, c, ts.URL+"/v1/sessions/acc/ingest")}

		// Watermark 2 closes epochs [0,1) and [1,2); results derive only
		// from the drained observations, so they must match bytewise.
		doJSON(t, c, "POST", ts.URL+"/v1/sessions/acc/step?n=2", "", 200, nil)
		_, out.results = getRaw(t, c, ts.URL+"/v1/sessions/acc/results/"+q.ID+"?limit=1000")
		out.status = ingestStatusKey(t, c, ts.URL+"/v1/sessions/acc/status")

		ts.Close()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash-recovery equivalence: replaying the WAL written through any
		// transport must reconstruct the same session.
		m2, err := NewManager(ManagerConfig{NewEngine: factory, DurabilityDir: root})
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		if _, err := m2.Recover(); err != nil {
			t.Fatal(err)
		}
		sess, err := m2.Get("acc")
		if err != nil {
			t.Fatal(err)
		}
		is := sess.Engine.IngestStats()
		tuples, _, _, err := readResults(sess.Engine, q.ID, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := json.Marshal(tuples)
		if err != nil {
			t.Fatal(err)
		}
		out.replay = fmt.Sprintf("stats=%+v epochs=%d results=%s", is, sess.Engine.Epochs(), replayed)
		return out
	}

	ref := runVariant(t, variants[0].push)
	if len(ref.results) == 0 {
		t.Fatal("reference variant retained no results")
	}
	for _, v := range variants[1:] {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got := runVariant(t, v.push)
			if len(got.acks) != len(ref.acks) {
				t.Fatalf("%d acks, want %d", len(got.acks), len(ref.acks))
			}
			for i := range ref.acks {
				if !bytes.Equal(got.acks[i], ref.acks[i]) {
					t.Errorf("ack %d = %q, want %q", i, got.acks[i], ref.acks[i])
				}
			}
			if !bytes.Equal(got.results, ref.results) {
				t.Errorf("results diverge:\n got %s\nwant %s", got.results, ref.results)
			}
			if got.status != ref.status {
				t.Errorf("ingest status = %s, want %s", got.status, ref.status)
			}
			if got.replay != ref.replay {
				t.Errorf("replayed state = %s, want %s", got.replay, ref.replay)
			}
		})
	}
}

func getRaw(t *testing.T, c *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return resp.StatusCode, data
}

// ingestStatusKey projects the ingest accounting out of /status.
func ingestStatusKey(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	var st struct {
		Ingested      int64    `json:"ingested"`
		IngestDropped int64    `json:"ingestDropped"`
		IngestLate    int64    `json:"ingestLate"`
		LateDropped   int64    `json:"lateDropped"`
		IngestRej     int64    `json:"ingestRejected"`
		Pending       int64    `json:"ingestPending"`
		Watermark     *float64 `json:"watermark"`
		Epochs        int64    `json:"epochs"`
	}
	doJSON(t, c, "GET", url, "", 200, &st)
	wm := "none"
	if st.Watermark != nil {
		wm = fmt.Sprintf("%g", *st.Watermark)
	}
	return fmt.Sprintf("%+v wm=%s", struct {
		In, Drop, Late, LateDrop, Rej, Pend, Epochs int64
	}{st.Ingested, st.IngestDropped, st.IngestLate, st.LateDropped, st.IngestRej, st.Pending, st.Epochs}, wm)
}

// TestHTTPIngestWireErrors drives the hostile inputs through the full HTTP
// stack and asserts the documented status codes: decompression bombs and
// oversized frames are 413, unknown Content-Encoding is 415, and malformed
// bodies of every codec are 400s — never 500s, never hangs.
func TestHTTPIngestWireErrors(t *testing.T) {
	ts, _ := newManagerTestServer(t)
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/sessions", `{"name":"mx","source":"external"}`, 201, nil)
	url := ts.URL + "/v1/sessions/mx/ingest"

	// A ~10 KiB gzip body inflating to 64 MiB of zeros must trip the
	// decompressed-size cap, not allocate 64 MiB.
	bomb := gzipBody(t, make([]byte, 64<<20))
	if status, body := postRaw(t, c, url, "application/json", "gzip", bomb); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb = %d: %s", status, body)
	}

	// Unsupported encodings name the ones that work.
	status, body := postRaw(t, c, url, "application/json", "zstd", []byte("{}"))
	if status != http.StatusUnsupportedMediaType {
		t.Fatalf("zstd = %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte("gzip")) {
		t.Fatalf("415 body should list accepted encodings: %s", body)
	}

	// A binary frame declaring a payload far past the frame cap is refused
	// by its header alone (413), without buffering the declared size.
	huge := make([]byte, 12)
	copy(huge, wire.Magic[:])
	binary.LittleEndian.PutUint32(huge[4:], uint32(wire.MaxFrameBytes+1))
	if status, body := postRaw(t, c, url, wire.ContentTypeBinary, "", huge); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame = %d: %s", status, body)
	}

	// Truncated frame, corrupt CRC, bad magic: 400s.
	frame := binaryIngestBody(t, wire.Batch{Attr: "rain", Watermark: math.NaN(), Tuples: []stream.Tuple{
		{Attr: "rain", T: 0.1, X: 1, Y: 1, Value: 1, Sensor: -1},
	}})
	if status, body := postRaw(t, c, url, wire.ContentTypeBinary, "", frame[:len(frame)-3]); status != http.StatusBadRequest {
		t.Fatalf("truncated frame = %d: %s", status, body)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if status, body := postRaw(t, c, url, wire.ContentTypeBinary, "", corrupt); status != http.StatusBadRequest {
		t.Fatalf("corrupt frame = %d: %s", status, body)
	}
	notAFrame := append([]byte("NOPE"), frame[4:]...)
	if status, body := postRaw(t, c, url, wire.ContentTypeBinary, "", notAFrame); status != http.StatusBadRequest {
		t.Fatalf("bad magic = %d: %s", status, body)
	}

	// Garbage gzip with a valid header is a 400 (truncated), not a hang.
	if status, body := postRaw(t, c, url, "application/json", "gzip", []byte("definitely not gzip")); status != http.StatusBadRequest {
		t.Fatalf("bad gzip = %d: %s", status, body)
	}

	// The scripts route shares the decompression path and its limits.
	scriptURL := ts.URL + "/v1/sessions/mx/script"
	if status, body := postRaw(t, c, scriptURL, "text/plain", "zstd", []byte("x")); status != http.StatusUnsupportedMediaType {
		t.Fatalf("script zstd = %d: %s", status, body)
	}
	if status, body := postRaw(t, c, scriptURL, "text/plain", "gzip", bomb); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("script bomb = %d: %s", status, body)
	}

	// After all that abuse, a well-formed push still lands.
	var ack client.Ack
	doJSON(t, c, "POST", url, `{"attr":"rain","observations":[{"t":0.1,"x":1,"y":1,"value":1}]}`, 200, &ack)
	if ack.Accepted != 1 {
		t.Fatalf("ack = %+v", ack)
	}
}

// TestHTTPIngestBodyBufferRecycled pins the unary ingest handler's use of the
// body-buffer pool for bodies larger than a pooled buffer's initial 64 KB: the
// buffer the body grew into is the one recycled, so the next push of the same
// size allocates nothing of body size; and the buffer is sized from
// Content-Length only up to the batch cap, which a body outrunning its
// declaration still meets as 413.
func TestHTTPIngestBodyBufferRecycled(t *testing.T) {
	_, s := newManagerTestServer(t)
	serve := func(path, ctype string, body []byte, declared int64) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.ContentLength = declared
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve("/v1/sessions", "application/json", []byte(`{"name":"big","source":"external"}`), -1); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	// Observations outside the region are rejected at the queue, so the pushes
	// exercise read, decode, admit and ack without growing the backlog.
	batch := wire.Batch{Attr: "rain", Watermark: math.NaN(), Tuples: make([]stream.Tuple, 4200)}
	for i := range batch.Tuples {
		batch.Tuples[i] = stream.Tuple{ID: uint64(i + 1), Attr: "rain", T: 0.5, X: -1, Y: -1, Sensor: -1}
	}
	frame := binaryIngestBody(t, batch)
	if len(frame) < 200<<10 {
		t.Fatalf("frame is %d bytes, want ≥ 200 KB", len(frame))
	}
	push := func() {
		t.Helper()
		rec := serve("/v1/sessions/big/ingest", wire.ContentTypeBinary, frame, int64(len(frame)))
		var ack client.Ack
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil || ack.Rejected != len(batch.Tuples) {
			t.Fatalf("push = %d %s (%v), want 200 with %d rejected", rec.Code, rec.Body, err, len(batch.Tuples))
		}
	}
	// No collection between the two pushes: it could empty the pool. And one
	// P for both: sync.Pool caches per P, so a goroutine the scheduler moved
	// between the pushes would look for the buffer where it was not put.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	push()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got >= uint64(len(frame))/2 {
		t.Fatalf("second %d-byte push allocated %d bytes: the grown body buffer was not recycled", len(frame), got)
	}

	// A declared length is a sizing hint, never a licence: a body longer than
	// the cap is refused whatever it declared, and a small body declaring
	// terabytes costs at most the cap.
	over := make([]byte, ingestBatchLimit+64+1)
	if rec := serve("/v1/sessions/big/ingest", wire.ContentTypeBinary, over, 10); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body past the cap under a lying Content-Length = %d: %s", rec.Code, rec.Body)
	}
	runtime.ReadMemStats(&before)
	if rec := serve("/v1/sessions/big/ingest", wire.ContentTypeBinary, frame, 1<<40); rec.Code != http.StatusOK {
		t.Fatalf("small body declaring 1 TB = %d: %s", rec.Code, rec.Body)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*ingestBatchLimit {
		t.Fatalf("a 1 TB Content-Length made the handler allocate %d bytes", got)
	}
}
