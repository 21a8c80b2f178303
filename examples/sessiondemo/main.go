// Session demo: host two independently clocked CrAQR sessions behind one
// HTTP service and read their streams the service-grade way, through the
// public client — cursor pagination over bounded result stores and live
// ndjson push — without ever polling POST /step.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	craqr "repro"
	"repro/client"
)

func main() {
	region := craqr.NewRect(0, 0, 8, 8)
	template := craqr.EngineConfig{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    craqr.BudgetConfig{Initial: 10, Delta: 4, Min: 2, Max: 300, ViolationThreshold: 10},
		Fleet: craqr.FleetConfig{
			N:        400,
			Response: craqr.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1, MeanLatency: 0.05},
		},
		Seed:      1,
		Retention: 4096,
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

	// Two sessions, independent seeds, independent clocks: "fast" ticks
	// every 20ms of wall time, "slow" every 60ms.
	for _, spec := range []client.SessionSpec{
		{Name: "fast", Seed: 7, Tick: "20ms"},
		{Name: "slow", Seed: 99, Tick: "60ms"},
	} {
		sess, err := c.CreateSession(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created session %q ticking every %s\n", sess.Name, sess.Tick)
	}

	// One query per session.
	fastQ, err := c.Submit(ctx, "fast", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3")
	if err != nil {
		log.Fatal(err)
	}
	slowQ, err := c.Submit(ctx, "slow", "ACQUIRE rain FROM RECT(4,4,8,8) RATE 2")
	if err != nil {
		log.Fatal(err)
	}

	// Push delivery: stream the fast session's tuples as ndjson while its
	// clock fabricates them — no /step calls anywhere in this program.
	streamCtx, stop := context.WithTimeout(ctx, 10*time.Second)
	rs, err := c.StreamResults(streamCtx, "fast", fastQ.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	for streamed := 0; streamed < 10; streamed++ {
		tp, err := rs.Next()
		if err != nil {
			break
		}
		line, err := json.Marshal(tp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pushed: %s\n", line)
	}
	stop()
	rs.Close()

	// Cursor pagination: drain the slow session's store page by page; the
	// cursor survives across requests, and drops would be reported
	// explicitly if we had fallen behind the retention window.
	var cursor uint64
	fetched := 0
	for page := 0; page < 50 && fetched < 20; page++ {
		rp, err := c.Results(ctx, "slow", slowQ.ID, cursor, 8)
		if err != nil {
			log.Fatal(err)
		}
		if rp.Dropped > 0 {
			fmt.Printf("fell behind retention: %d tuples dropped\n", rp.Dropped)
		}
		if len(rp.Tuples) == 0 {
			time.Sleep(50 * time.Millisecond) // let the slow clock tick
			continue
		}
		fmt.Printf("page: %d tuples, cursor %d → %d (stream total %d)\n",
			len(rp.Tuples), cursor, rp.NextCursor, rp.Total)
		fetched += len(rp.Tuples)
		cursor = rp.NextCursor
	}

	// Operator views: per-session status and service health.
	for _, name := range []string{"fast", "slow"} {
		st, err := c.Status(ctx, name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %s: %d epochs, t=%g, %d queries, %d retention drops\n",
			name, st.Epochs, st.Now, st.Queries, st.RetentionDrops)
	}
	hz, err := c.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz: %s, %d sessions\n", hz.Status, hz.Sessions)
}
