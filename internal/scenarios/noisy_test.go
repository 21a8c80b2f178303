package scenarios

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
)

// victimWorkload runs the well-behaved tenant's fixed, deterministic
// workload against a cluster: create a session, submit a query, push the
// same observation batches, close the same epochs, and return the raw
// result bytes plus the scheduler's p99 epoch wait. It is the yardstick
// for non-interference: its outputs may not change when an attacker is
// added next door.
func victimWorkload(t *testing.T, cl *cluster) (results []byte, p99WaitMs float64) {
	t.Helper()
	do(t, cl.c, "POST", cl.url("/v1/sessions"),
		mkSpec(t, map[string]interface{}{"name": "victim", "source": "external", "tolerance": 0.5}), 201, nil)
	var q struct {
		ID string `json:"id"`
	}
	do(t, cl.c, "POST", cl.url("/v1/sessions/victim/queries"),
		"ACQUIRE rain FROM RECT(0,0,8,8) RATE 3", 201, &q)

	ingestURL := cl.url("/v1/sessions/victim/ingest")
	for epoch := 0; epoch < 4; epoch++ {
		b := wire.Batch{Attr: "rain", Watermark: float64(epoch + 1)}
		for i := 0; i < 20; i++ {
			b.Tuples = append(b.Tuples, stream.Tuple{
				ID:   uint64(epoch*100 + i + 1),
				Attr: "rain",
				T:    float64(epoch) + float64(i)/20,
				X:    float64(1 + i%7), Y: float64(1 + (i*3)%7),
				Value:  float64(i % 2),
				Sensor: -1,
			})
		}
		a := pushJSON(t, cl.c, ingestURL, b)
		if a.Accepted != 20 {
			t.Fatalf("victim epoch %d push: %+v", epoch, a)
		}
		// One step per epoch: under contention each step waits its turn at
		// the shared epoch slot, which is exactly what the fairness bound
		// measures.
		var step struct {
			Stepped int `json:"stepped"`
		}
		do(t, cl.c, "POST", cl.url("/v1/sessions/victim/step?n=1"), "", 200, &step)
		if step.Stepped != 1 {
			t.Fatalf("victim epoch %d did not close: %+v", epoch, step)
		}
	}
	results = getBody(t, cl.c, cl.url("/v1/sessions/victim/results/"+q.ID+"?limit=10000"))
	st := getStatus(t, cl.c, cl.url("/v1/sessions/victim/status"))
	return results, st.Sched.P99WaitMs
}

// TestScenarioNoisyNeighbor is the multi-tenant acceptance run: one shared
// epoch slot, a victim doing fixed work, and an attacker tenant that both
// floods the ingest gateway at ~10× its admitted rate and burns epoch
// bandwidth with a busy simulated session. Protection and non-interference
// are asserted together:
//
//   - the flooder is throttled accurately — 429s with a truthful
//     Retry-After, counted in its own /status, nobody else's;
//   - the victim's results are byte-identical to its solo run;
//   - the victim's p99 epoch wait stays within 2× of solo (plus a small
//     absolute floor for timer noise on loaded CI machines).
func TestScenarioNoisyNeighbor(t *testing.T) {
	template := worldConfig()
	template.Source = server.SourceConfig{Mode: server.SourceExternal}
	mcfg := server.ManagerConfig{EpochSlots: 1}

	soloResults, soloP99 := victimWorkload(t, startCluster(t, template, mcfg))
	if len(soloResults) == 0 {
		t.Fatal("solo victim run retained no results")
	}

	// Contended run: same config, same victim workload, plus the attacker.
	cl := startCluster(t, template, mcfg)

	// Attacker session 1: rate-limited ingest target. 300 tuples/s admitted;
	// the flood pushes ~10× that.
	do(t, cl.c, "POST", cl.url("/v1/sessions"), mkSpec(t, map[string]interface{}{
		"name": "flood", "source": "external", "tolerance": 0.5,
		"limits": map[string]interface{}{"rateTuplesPerSec": 300},
	}), 201, nil)
	// Attacker session 2: a simulated-source session whose epochs are real
	// fleet work, stepped in a tight loop to contend for the single slot.
	do(t, cl.c, "POST", cl.url("/v1/sessions"),
		mkSpec(t, map[string]interface{}{"name": "burner", "source": "simulated"}), 201, nil)
	do(t, cl.c, "POST", cl.url("/v1/sessions/burner/queries"),
		"ACQUIRE temp FROM RECT(0,0,8,8) RATE 5", 201, nil)

	ctx, cancel := context.WithCancel(context.Background())
	var (
		wg          sync.WaitGroup
		flood429s   atomic.Int64
		floodOKs    atomic.Int64
		badRetryHdr atomic.Int64
	)
	// The flooder uses its own plain client so it can inspect raw 429
	// responses; ~10× the admitted rate: 300-tuple batches, 10/s.
	floodBody := jsonBody(t, floodBatch(300))
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{}
		url := cl.url("/v1/sessions/flood/ingest")
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(floodBody))
			if err != nil {
				continue
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			if err != nil {
				continue // cancelled mid-flight at shutdown
			}
			switch resp.StatusCode {
			case http.StatusOK:
				floodOKs.Add(1)
			case http.StatusTooManyRequests:
				flood429s.Add(1)
				if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
					badRetryHdr.Add(1)
				}
			}
			resp.Body.Close()
		}
	}()
	// The burner steps its simulated session back to back, holding the
	// single epoch slot as often as the fair scheduler lets it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{}
		url := cl.url("/v1/sessions/burner/step?n=1")
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
			if err != nil {
				continue
			}
			resp, err := hc.Do(req)
			if err != nil {
				continue
			}
			resp.Body.Close()
		}
	}()

	// Let the attack establish itself, then run the victim's exact solo
	// workload under fire.
	time.Sleep(100 * time.Millisecond)
	contResults, contP99 := victimWorkload(t, cl)
	cancel()
	wg.Wait()

	// Protection: the flood was actually refused, accurately.
	if n := flood429s.Load(); n == 0 {
		t.Errorf("flooder saw no 429s (ok=%d) — admission control idle", floodOKs.Load())
	}
	if n := badRetryHdr.Load(); n > 0 {
		t.Errorf("%d 429 responses carried a missing or sub-second Retry-After", n)
	}
	// The server's counter must cover every refusal the client saw (it may
	// exceed it by requests cancelled mid-flight at shutdown).
	floodSt := getStatus(t, cl.c, cl.url("/v1/sessions/flood/status"))
	if got := int64(floodSt.Throttled.Batches); got < flood429s.Load() {
		t.Errorf("flooder status throttled.batches = %d, but client observed %d refusals", got, flood429s.Load())
	}
	// Non-interference: the throttling charged nobody else.
	victimSt := getStatus(t, cl.c, cl.url("/v1/sessions/victim/status"))
	if got := int(victimSt.Throttled.Batches); got != 0 {
		t.Errorf("victim charged %d throttled batches for the flooder's traffic", got)
	}
	// Non-interference: byte-identical output.
	if !bytes.Equal(contResults, soloResults) {
		t.Errorf("victim results changed under attack:\n solo: %s\n cont: %s", soloResults, contResults)
	}
	// Fairness: bounded added latency. The absolute floor absorbs scheduler
	// granularity and one burner epoch of unavoidable slot occupancy.
	const floorMs = 250.0
	if contP99 > 2*soloP99+floorMs {
		t.Errorf("victim p99 epoch wait %gms exceeds 2×solo (%gms) + %gms floor", contP99, soloP99, floorMs)
	}
	t.Logf("noisy neighbor: flooder ok=%d 429=%d; victim p99 wait solo=%.2fms contended=%.2fms",
		floodOKs.Load(), flood429s.Load(), soloP99, contP99)
}

// floodBatch builds the flooder's fixed n-tuple batch (gateway-assigned
// IDs, monotone T so its own watermark keeps moving).
func floodBatch(n int) wire.Batch {
	b := wire.Batch{Attr: "rain", Watermark: math.NaN()}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{
			Attr: "rain", T: float64(i) / float64(n),
			X: 3, Y: 3, Value: 1, Sensor: -1,
		})
	}
	return b
}
