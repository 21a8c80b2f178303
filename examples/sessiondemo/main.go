// Session demo: host two independently clocked CrAQR sessions behind one
// HTTP service and read their streams the service-grade way — cursor
// pagination over bounded result stores and live ndjson push — without ever
// polling POST /step.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	craqr "repro"
)

// api is a minimal JSON client for the /v1 session API.
type api struct {
	base   string
	client *http.Client
}

func (a api) do(method, path string, body string, out interface{}) error {
	req, err := http.NewRequest(method, a.base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, buf.String())
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

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
	c := api{base: "http://" + ln.Addr().String(), client: &http.Client{}}

	// Two sessions, independent seeds, independent clocks: "fast" ticks
	// every 20ms of wall time, "slow" every 60ms.
	for _, spec := range []string{
		`{"name":"fast","seed":7,"tick":"20ms"}`,
		`{"name":"slow","seed":99,"tick":"60ms"}`,
	} {
		var sj struct {
			Name string `json:"name"`
			Tick string `json:"tick"`
		}
		if err := c.do("POST", "/v1/sessions", spec, &sj); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created session %q ticking every %s\n", sj.Name, sj.Tick)
	}

	// One query per session.
	var q struct {
		ID string `json:"id"`
	}
	if err := c.do("POST", "/v1/sessions/fast/queries", "ACQUIRE rain FROM RECT(0,0,4,4) RATE 3", &q); err != nil {
		log.Fatal(err)
	}
	fastQ := q.ID
	if err := c.do("POST", "/v1/sessions/slow/queries", "ACQUIRE rain FROM RECT(4,4,8,8) RATE 2", &q); err != nil {
		log.Fatal(err)
	}
	slowQ := q.ID

	// Push delivery: stream the fast session's tuples as ndjson while its
	// clock fabricates them — no /step calls anywhere in this program.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sessions/fast/results/"+fastQ+"/stream", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	streamed := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() && streamed < 10 {
		fmt.Printf("pushed: %s\n", scanner.Text())
		streamed++
	}
	cancel()
	resp.Body.Close()

	// Cursor pagination: drain the slow session's store page by page; the
	// cursor survives across requests, and drops would be reported
	// explicitly if we had fallen behind the retention window.
	var cursor uint64
	fetched := 0
	for page := 0; page < 50 && fetched < 20; page++ {
		var rj struct {
			Tuples     []json.RawMessage `json:"tuples"`
			NextCursor uint64            `json:"nextCursor"`
			Dropped    uint64            `json:"dropped"`
			Total      uint64            `json:"total"`
		}
		path := fmt.Sprintf("/v1/sessions/slow/results/%s?cursor=%d&limit=8", slowQ, cursor)
		if err := c.do("GET", path, "", &rj); err != nil {
			log.Fatal(err)
		}
		if rj.Dropped > 0 {
			fmt.Printf("fell behind retention: %d tuples dropped\n", rj.Dropped)
		}
		if len(rj.Tuples) == 0 {
			time.Sleep(50 * time.Millisecond) // let the slow clock tick
			continue
		}
		fmt.Printf("page: %d tuples, cursor %d → %d (stream total %d)\n",
			len(rj.Tuples), cursor, rj.NextCursor, rj.Total)
		fetched += len(rj.Tuples)
		cursor = rj.NextCursor
	}

	// Operator views: per-session status and service health.
	var st struct {
		Epochs         int     `json:"epochs"`
		Now            float64 `json:"now"`
		Queries        int     `json:"queries"`
		RetentionDrops uint64  `json:"retentionDrops"`
	}
	for _, name := range []string{"fast", "slow"} {
		if err := c.do("GET", "/v1/sessions/"+name+"/status", "", &st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %s: %d epochs, t=%g, %d queries, %d retention drops\n",
			name, st.Epochs, st.Now, st.Queries, st.RetentionDrops)
	}
	var hz struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if err := c.do("GET", "/v1/healthz", "", &hz); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz: %s, %d sessions\n", hz.Status, hz.Sessions)
}
