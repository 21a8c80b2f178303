package scenarios

import (
	"math"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestScenarioBurstyDiurnalFleets drives several concurrent "fleets" whose
// push sizes swing sinusoidally (the diurnal pattern of a crowdsensed
// deployment: quiet nights, rush-hour bursts) against a session with a
// small ingest buffer and a queue-byte quota. The protections under test:
//
//   - memory stays bounded — pending never exceeds the configured buffer,
//     and bursts beyond the queue-byte quota are refused with 429 rather
//     than absorbed;
//   - accounting stays exact — every tuple every fleet ever pushed lands
//     in exactly one ack bucket, and /status agrees with the ack totals;
//   - the session keeps making progress — epochs still close and results
//     flow while the bursts are refused.
func TestScenarioBurstyDiurnalFleets(t *testing.T) {
	const buffer = 512
	template := worldConfig()
	template.Source = server.SourceConfig{Mode: server.SourceExternal}
	cl := startCluster(t, template, server.ManagerConfig{})

	spec := mkSpec(t, map[string]interface{}{
		"name":         "city",
		"source":       "external",
		"tolerance":    0.5,
		"ingestBuffer": buffer,
		"limits":       map[string]interface{}{"maxQueueBytes": buffer * 96}, // ingest.TupleMemBytes × buffer
	})
	do(t, cl.c, "POST", cl.url("/v1/sessions"), spec, 201, nil)
	var q struct {
		ID string `json:"id"`
	}
	do(t, cl.c, "POST", cl.url("/v1/sessions/city/queries"),
		"ACQUIRE rain FROM RECT(0,0,8,8) RATE 3", 201, &q)

	ingestURL := cl.url("/v1/sessions/city/ingest")
	const fleets = 4
	const phases = 12 // one simulated "day" = 12 push rounds per fleet

	var mu sync.Mutex
	var pushed, accepted, dropped, lateDropped, rejected, duplicates, throttledBatches int
	var wg sync.WaitGroup
	for f := 0; f < fleets; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				// Diurnal envelope: 4 tuples at the trough, ~200 at the peak;
				// one fleet is a spiker pushing 4× the others at its peak.
				size := 4 + int(196*0.5*(1+math.Sin(2*math.Pi*float64(p)/phases)))
				if f == 0 && p == phases/4 {
					size *= 4
				}
				b := wire.Batch{Attr: "rain", Watermark: math.NaN()}
				for i := 0; i < size; i++ {
					b.Tuples = append(b.Tuples, stream.Tuple{
						Attr: "rain",
						T:    float64(p) + float64(i)/float64(size),
						X:    float64(1 + (f+i)%7), Y: float64(1 + (f*3+i)%7),
						Value:  float64(i % 2),
						Sensor: -1,
					})
				}
				status, _, data := postRaw(t, cl.c, ingestURL, "application/json", jsonBody(t, b))
				mu.Lock()
				pushed += size
				switch status {
				case 200:
					var a client.Ack
					if err := unmarshalAck(data, &a); err != nil {
						mu.Unlock()
						t.Error(err)
						return
					}
					if accounted(a) != size {
						t.Errorf("fleet %d phase %d: ack accounts for %d of %d tuples: %+v", f, p, accounted(a), size, a)
					}
					if a.Pending > buffer {
						t.Errorf("fleet %d phase %d: pending %d exceeds buffer %d", f, p, a.Pending, buffer)
					}
					accepted += a.Accepted
					dropped += a.Dropped
					lateDropped += a.LateDropped
					rejected += a.Rejected
					duplicates += a.Duplicates
				case 429:
					// Quota refusal: the whole batch bounced before the queue;
					// none of its tuples may appear in any accounting bucket.
					throttledBatches++
					pushed -= size
				default:
					t.Errorf("fleet %d phase %d: push = %d: %s", f, p, status, data)
				}
				mu.Unlock()
			}
		}(f)
	}

	// Drain concurrently with the bursts, like a live deployment: the
	// stepper closes whatever epochs the watermark allows.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < phases; i++ {
			do(t, cl.c, "POST", cl.url("/v1/sessions/city/step?n=100"), "", 200, nil)
		}
	}()
	wg.Wait()
	<-done

	// Assert a final watermark and drain the backlog completely.
	wm := float64(phases + 1)
	pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: wm})
	do(t, cl.c, "POST", cl.url("/v1/sessions/city/step?n=100"), "", 200, nil)

	st := getStatus(t, cl.c, cl.url("/v1/sessions/city/status"))
	if got := int(st.Ingested); got != accepted {
		t.Errorf("status ingested = %d, acks accepted = %d", got, accepted)
	}
	if got := int(st.IngestDropped); got != dropped {
		t.Errorf("status ingestDropped = %d, acks dropped = %d", got, dropped)
	}
	if got := st.IngestPending; got != 0 {
		t.Errorf("backlog not drained: pending = %d", got)
	}
	if sum := accepted + dropped + lateDropped + rejected + duplicates; sum != pushed {
		t.Errorf("accounting leak: buckets sum to %d, pushed %d", sum, pushed)
	}
	if epochs := st.Epochs; epochs < phases {
		t.Errorf("progress stalled under bursts: %d epochs, want ≥ %d", epochs, phases)
	}
	// The 4× spike against a byte quota sized to the buffer must have been
	// refused at least once — otherwise the quota wasn't exercised at all.
	if throttledBatches == 0 {
		t.Error("no burst was ever throttled; quota not exercised")
	}
	if got := int(st.Throttled.Batches); got != throttledBatches {
		t.Errorf("status throttled.batches = %d, observed %d refusals", got, throttledBatches)
	}
}
