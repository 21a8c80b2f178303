// Bridgefeed: the external-ingestion loop end to end. A craqrd-style
// service is booted in-process, then everything else happens over HTTP
// through the public client: create a session in external source mode,
// submit an ACQUIRE query for an attribute the simulated fleet knows
// nothing about ("co2"), push externally produced observations through the
// ingest gateway — out of order, within the watermark tolerance — and
// stream the acquired (rate-regularized) tuples back while epochs close on
// the event-time watermark: the producer is the session's clock. The
// producer+consumer core is the ~30 lines between the PRODUCER and
// CONSUMER markers; everything above is server boot a real deployment
// wouldn't need.
//
// (Mixed mode composes these pushes with the simulated fleet instead; pace
// mixed sessions with a wall-clock tick or manual steps — a mixed session
// on a back-to-back simulated clock free-runs until its first push.)
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	craqr "repro"
	"repro/client"
)

func main() {
	// --- boot a craqrd-equivalent service on a loopback port -------------
	region := craqr.NewRect(0, 0, 8, 8)
	template := craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        200,
			Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.05},
		},
		Seed:      1,
		Retention: 8192,
	}
	fields := func() (map[string]craqr.Field, error) {
		rain, err := craqr.NewRainField(region, []craqr.Storm{{X0: 2, Y0: 2, VX: 0.2, VY: 0.1, Radius: 2}})
		if err != nil {
			return nil, err
		}
		return map[string]craqr.Field{"rain": rain}, nil
	}
	manager, err := craqr.NewManager(craqr.ManagerConfig{NewEngine: craqr.NewEngineFactory(template, fields)})
	if err != nil {
		log.Fatal(err)
	}
	defer manager.Close()
	httpServer, err := craqr.NewManagerHTTPServer(manager)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpServer}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())

	// An external session on a simulated clock: epochs are driven purely by
	// the event-time watermark — the clock parks while an epoch is open and
	// fabricates the moment the producer's watermark passes its end.
	sess, err := c.CreateSession(ctx, client.SessionSpec{
		Name: "bridge", Source: "external", Simulated: true, Tolerance: 0.5, LatePolicy: "next",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %q: source=%s\n", sess.Name, sess.Source)
	q, err := c.Submit(ctx, "bridge", "ACQUIRE co2 FROM RECT(0,0,8,8) RATE 20")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s acquires co2 at rate 20\n", q.ID)

	// --- CONSUMER: stream the acquired tuples as they fabricate ----------
	streamed := make(chan int, 1)
	rs, err := c.StreamResults(ctx, "bridge", q.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	go func() {
		n := 0
		for n < 12 {
			tp, err := rs.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && ctx.Err() == nil {
					log.Printf("stream: %v", err)
				}
				break
			}
			fmt.Printf("acquired: %s#%d t=%.2f (%.1f,%.1f) value=%.1f\n",
				tp.Attr, tp.ID, tp.T, tp.X, tp.Y, tp.Value)
			n++
		}
		streamed <- n
	}()

	// --- PRODUCER: push observations, out of order, watermark-paced ------
	for epoch := 0; epoch < 4; epoch++ {
		var obss []client.Observation
		for i := 0; i < 40; i++ {
			// Event times land in this epoch but arrive shuffled (i*7%40).
			tm := float64(epoch) + float64((i*7)%40)/40
			obss = append(obss, client.Observation{
				ID: uint64(epoch*1000 + i + 1), T: tm,
				X: float64(i%8) + 0.5, Y: float64((i/8)%8) + 0.5,
				Value: 400 + 10*tm,
			})
		}
		ack, err := c.Ingest(ctx, "bridge", client.Batch{Attr: "co2", Observations: obss})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pushed epoch %d: accepted=%d late=%d dropped=%d pending=%d\n",
			epoch, ack.Accepted, ack.Late, ack.Dropped, ack.Pending)
	}
	// The final watermark lets the last epoch close with no more data.
	if _, err := c.AssertWatermark(ctx, "bridge", 4); err != nil {
		log.Fatal(err)
	}

	n := <-streamed
	st, err := c.Session(ctx, "bridge")
	if err != nil {
		log.Fatal(err)
	}
	wm := 0.0
	if st.Watermark != nil {
		wm = *st.Watermark
	}
	fmt.Printf("streamed %d tuples; session: epochs=%d ingested=%d dropped=%d late-dropped=%d watermark=%g\n",
		n, st.Epochs, st.Ingested, st.IngestDropped, st.LateDropped, wm)
}
