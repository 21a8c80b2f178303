package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/client"
)

// TestStreamResultsResumesAcrossHandoff pins the client side of a cluster
// handoff: the result stream's connection dies mid-flight (the owning
// node was killed), the gateway answers 503 while the new owner replays
// the WAL, and Next transparently reconnects from the exact cursor —
// every tuple delivered once, none dropped, none duplicated, and a record
// the dying connection cut in half is read again whole.
func TestStreamResultsResumesAcrossHandoff(t *testing.T) {
	var mu sync.Mutex
	var cursors []uint64
	step := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/s/results/q/stream", func(w http.ResponseWriter, r *http.Request) {
		cursor, _ := strconv.ParseUint(r.URL.Query().Get("cursor"), 10, 64)
		mu.Lock()
		cursors = append(cursors, cursor)
		n := step
		step++
		mu.Unlock()
		switch n {
		case 0:
			// First attach: 2 tuples already evicted, then tuples 2..4 —
			// and the node dies mid-stream (aborted connection, no clean
			// end and no final chunk).
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintf(w, "{\"dropped\":2}\n")
			for i := 2; i < 5; i++ {
				fmt.Fprintf(w, `{"id":%d,"attr":"co2","value":%d}`+"\n", i, 100+i)
			}
			// The kill tears tuple 5 mid-record: no newline ever arrives.
			// The fragment must be discarded, not parsed — the resume at
			// cursor 5 delivers the record whole.
			fmt.Fprint(w, `{"id":5,"attr":"co2","val`)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case 1:
			// Gateway mid-handoff: retryable 503.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"session \"s\" handoff in progress"}`)
		case 2:
			// New owner, replay done: the stream resumes and later ends
			// cleanly (session still alive, server restarting).
			if cursor != 5 {
				t.Errorf("resume cursor = %d, want 5", cursor)
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			for i := 5; i < 8; i++ {
				fmt.Fprintf(w, `{"id":%d,"attr":"co2","value":%d}`+"\n", i, 100+i)
			}
		default:
			// Session destroyed: reconnect sees 404, the clean end.
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"no such session"}`)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rs, err := c.StreamResults(ctx, "s", "q", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	var ids []uint64
	for {
		tp, err := rs.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		ids = append(ids, tp.ID)
	}
	want := []uint64{2, 3, 4, 5, 6, 7}
	if len(ids) != len(want) {
		t.Fatalf("streamed ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("streamed ids = %v, want %v (no drops, no dups)", ids, want)
		}
	}
	if rs.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", rs.Dropped())
	}
	if rs.Cursor() != 8 {
		t.Fatalf("Cursor = %d, want 8", rs.Cursor())
	}
	mu.Lock()
	defer mu.Unlock()
	// Attach at 0; the broken connection resumes at 5 (503, then success);
	// the clean end reconnects once at 8 and learns the session is gone.
	wantCursors := []uint64{0, 5, 5, 8}
	if len(cursors) != len(wantCursors) {
		t.Fatalf("request cursors = %v, want %v", cursors, wantCursors)
	}
	for i := range wantCursors {
		if cursors[i] != wantCursors[i] {
			t.Fatalf("request cursors = %v, want %v", cursors, wantCursors)
		}
	}
}

// TestMisdirectedRequestIsRetryable pins that 421 — a cluster node
// refusing a request routed on a stale ring — retries under the client's
// policy like 503 and 429 do.
func TestMisdirectedRequestIsRetryable(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/sessions/s/ingest", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			w.WriteHeader(http.StatusMisdirectedRequest)
			fmt.Fprint(w, `{"error":"server: request routed for node \"a\" but this is \"b\""}`)
			return
		}
		fmt.Fprint(w, `{"accepted":1,"dropped":0,"late":0,"lateDropped":0,"rejected":0,"watermark":null,"pending":1}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	ack, err := c.Ingest(context.Background(), "s", client.Batch{Attr: "co2", Observations: []client.Observation{{ID: 1, T: 0.5, X: 1, Y: 1, Value: 7}}})
	if err != nil {
		t.Fatalf("ingest did not retry past 421: %v", err)
	}
	if ack.Accepted != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("ingest attempts = %d, want 2 (one 421, one success)", calls)
	}
}
