// Command craqrd serves CrAQR engines over HTTP as a multi-session service:
// each session is an independently clocked engine with its own seed and
// bounded per-query result retention; clients page fabricated streams with
// cursors or subscribe to live push delivery.
//
//	craqrd -addr :8080 -tick 200ms -retention 65536 -sessions 64
//
//	GET    /v1/healthz                                liveness probe
//	POST   /v1/sessions                               create a session ({"name","seed","tick","simulated","retention",
//	                                                  "source","adaptiveRates",…})
//	GET    /v1/sessions                               list sessions
//	GET    /v1/sessions/{s}/status                    session status (epochs, now, drops, budgets, sharing, meanNv)
//	DELETE /v1/sessions/{s}                           destroy a session
//	POST   /v1/sessions/{s}/queries                   submit a CrAQL query (EXPLAIN … returns the plan table)
//	GET    /v1/sessions/{s}/queries/{q}/plan          EXPLAIN of a live query (planner cost table)
//	POST   /v1/sessions/{s}/script                    submit a CrAQL script atomically
//	POST   /v1/sessions/{s}/step?n=k                  advance k epochs manually
//	POST   /v1/sessions/{s}/ingest                    push external observations (JSON batch or ndjson)
//	GET    /v1/sessions/{s}/results/{q}?cursor=&limit=  cursor-paginated results
//	GET    /v1/sessions/{s}/results/{q}/stream        live ndjson (?sse=1 for SSE)
//
// A standalone daemon starts with one pinned session named "default"
// (-seed, -tick), so /v1/sessions/default/… works out of the box.
//
// Every query's cells merge under one n-ary U-operator; EXPLAIN and the plan
// route show its cost estimate. -budget turns on adaptive rate retuning,
// converging starved cells to their feasible rate.
// -source selects the template observation source (simulated | external |
// mixed): external and mixed sessions accept pushes on the ingest route,
// with -ingest-buffer bounding the per-session queue, -tolerance the
// event-time out-of-order slack and -late the late-tuple policy (drop |
// next). Sessions can override any of these at POST /v1/sessions. See
// docs/API.md for the full HTTP reference.
//
// -data-dir makes sessions durable: every accepted ingest batch and epoch
// is written to a per-session WAL (fsync policy via -fsync), and every
// -snapshot-every epochs the session's full state is snapshotted; the WAL
// segments behind the two kept snapshots are deleted. On restart with the
// same -data-dir every session restores its older kept snapshot and replays
// only the WAL after it, checking the replayed state against the newer one,
// and resumes its result streams where they left off (see DESIGN.md §11).
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops
// taking connections, in-flight requests get a drain deadline, and every
// session's engine is stopped (ingest queues closed, result stores closed)
// so streaming clients see a clean end of stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/world"
)

// defaultSession is the pinned session a standalone daemon creates at
// startup; README, docs/API.md and scripts/crash_e2e.sh address it.
const defaultSession = "default"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	tick := flag.Duration("tick", 0, "default session epoch tick (0 disables; use POST /v1/sessions/default/step)")
	retention := flag.Int("retention", 0, "per-query result retention in tuples (0 = default)")
	maxSessions := flag.Int("sessions", server.DefaultMaxSessions, "maximum concurrently hosted sessions")
	idleTTL := flag.Duration("idle-ttl", 0, "destroy unpinned sessions idle this long (0 disables)")
	nSensors := flag.Int("sensors", 500, "mobile sensors per session fleet")
	seed := flag.Int64("seed", 1, "default session random seed")
	workers := flag.Int("workers", 0, "epoch worker pool size (0 = one worker per 2048 tuples of an epoch, at most GOMAXPROCS; 1 = serial)")
	budgetAdapt := flag.Bool("budget", false, "adaptive rate retuning from violation feedback")
	sourceMode := flag.String("source", "simulated", "observation source template: simulated | external | mixed")
	ingestBuffer := flag.Int("ingest-buffer", 0, "per-session ingest queue bound in tuples (0 = default)")
	tolerance := flag.Float64("tolerance", 0, "event-time out-of-order tolerance in epoch time units")
	late := flag.String("late", "drop", "late-tuple policy: drop | next")
	dataDir := flag.String("data-dir", "", "durability root: WAL + snapshots per session (empty disables durability)")
	fsyncPolicy := flag.String("fsync", "batch", "WAL fsync policy with -data-dir: always | batch | never")
	snapshotEvery := flag.Int("snapshot-every", 0, "with -data-dir, snapshot each session's full state every N epochs (0 = default 16); recovery replays about two intervals of WAL")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	// Tenant protection (docs/API.md, "Tenant limits"): per-session template
	// limits (overridable per session at POST /v1/sessions), the epoch
	// scheduler's concurrency, and per-token gateway rates. Zero = unlimited.
	rateTuples := flag.Float64("rate-tuples", 0, "per-session ingest rate limit in tuples/s (0 = unlimited)")
	rateBytes := flag.Float64("rate-bytes", 0, "per-session ingest rate limit in payload bytes/s (0 = unlimited)")
	maxQueries := flag.Int("max-queries", 0, "per-session resident query quota (0 = unlimited)")
	maxQueueBytes := flag.Int64("max-queue-bytes", 0, "per-session ingest queue quota in accounted bytes (0 = unlimited)")
	maxWALBytes := flag.Int64("max-wal-bytes", 0, "per-session WAL size quota in bytes (0 = unlimited)")
	epochSlots := flag.Int("epoch-slots", 0, "concurrent epoch slots shared fairly across sessions (0 = GOMAXPROCS/2)")
	tokenRateTuples := flag.Float64("token-rate-tuples", 0, "per-producer-token ingest rate limit in tuples/s (0 = unlimited)")
	tokenRateBytes := flag.Float64("token-rate-bytes", 0, "per-producer-token ingest rate limit in payload bytes/s (0 = unlimited)")
	nodeName := flag.String("node-name", "", "cluster node mode: advertise this name behind a craqr-gw gateway (requires -data-dir shared with the pool)")
	flag.Parse()

	if *nodeName != "" && *dataDir == "" {
		log.Fatal("craqrd: -node-name requires -data-dir (session handoff replays the shared WAL volume)")
	}

	srcMode, err := server.ParseSourceMode(*sourceMode)
	if err != nil {
		log.Fatal(err)
	}
	latePolicy, err := ingest.ParseLatePolicy(*late)
	if err != nil {
		log.Fatal(err)
	}
	fsync, err := wal.ParsePolicy(*fsyncPolicy)
	if err != nil {
		log.Fatal(err)
	}

	template := world.Template(*nSensors)
	template.Seed = *seed
	template.Retention = *retention
	template.Fabricator.Workers = *workers
	template.AdaptiveRates = *budgetAdapt
	template.Source = server.SourceConfig{
		Mode:      srcMode,
		Buffer:    *ingestBuffer,
		Tolerance: *tolerance,
		Late:      latePolicy,
	}
	if *dataDir != "" {
		template.Durability = server.DurabilityConfig{
			Dir:                 *dataDir,
			Fsync:               fsync,
			SnapshotEveryEpochs: *snapshotEvery,
		}
	}
	template.Limits = server.TenantLimits{
		RateTuplesPerSec: *rateTuples,
		RateBytesPerSec:  *rateBytes,
		MaxQueries:       *maxQueries,
		MaxQueueBytes:    *maxQueueBytes,
		MaxWALBytes:      *maxWALBytes,
	}
	if err := template.Limits.Validate(); err != nil {
		log.Fatal(err)
	}

	manager, err := server.NewManager(server.ManagerConfig{
		NewEngine:     server.NewEngineFactory(template, world.Fields),
		MaxSessions:   *maxSessions,
		IdleTTL:       *idleTTL,
		DurabilityDir: *dataDir,
		EpochSlots:    *epochSlots,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *nodeName == "" {
		// Re-adopt sessions persisted under a previous run's -data-dir: each
		// restores its snapshot and replays the WAL after it before serving. Recover isolates
		// failures per session, so one corrupt or spec-mismatched directory
		// must not take the healthy sessions down with it: log it and serve
		// what recovered — the failed directory is left on disk for inspection
		// (DELETE /v1/sessions/{name} purges it).
		recovered, err := manager.Recover()
		if err != nil {
			log.Printf("craqrd: recovery: %v (serving the sessions that recovered)", err)
		}
		for _, name := range recovered {
			log.Printf("craqrd: recovered session %q from %s", name, *dataDir)
		}

		// The pinned default session gives a fresh daemon something to
		// address (skipped when a recovered session already owns the name).
		if _, err := manager.Get(defaultSession); err != nil {
			if _, err := manager.Create(server.SessionSpec{
				Name:   defaultSession,
				Seed:   *seed,
				Clock:  server.ClockConfig{Interval: *tick},
				Pinned: true,
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	// In node mode both steps above are the gateway's job: the pool shares
	// one -data-dir, so auto-recovering here would make every node adopt
	// every session's WAL, and a locally pinned "default" session would
	// fight the ring for the name. Nodes start empty; craqr-gw's reconcile
	// places sessions via /v1/node/sessions/{s}/recover.

	httpServer, err := server.NewManagerHTTPServer(manager, "")
	if err != nil {
		log.Fatal(err)
	}
	if *nodeName != "" {
		httpServer.SetNodeName(*nodeName)
		fmt.Printf("craqrd: cluster node %q (misrouted requests get 421; put a craqr-gw in front)\n", *nodeName)
	}
	if *tokenRateTuples > 0 || *tokenRateBytes > 0 {
		httpServer.SetGatewayLimits(server.GatewayLimits{
			RateTuplesPerSec: *tokenRateTuples,
			RateBytesPerSec:  *tokenRateBytes,
		})
		fmt.Printf("craqrd: per-token gateway limits: %g tuples/s, %g bytes/s (identify producers with X-CrAQR-Token)\n",
			*tokenRateTuples, *tokenRateBytes)
	}
	if template.Limits.RateTuplesPerSec > 0 || template.Limits.RateBytesPerSec > 0 ||
		template.Limits.MaxQueries > 0 || template.Limits.MaxQueueBytes > 0 || template.Limits.MaxWALBytes > 0 {
		fmt.Printf("craqrd: per-session tenant limits active (throttled pushes get 429 + Retry-After)\n")
	}
	if *tick > 0 {
		fmt.Printf("craqrd: default session ticking every %v\n", *tick)
	}
	if *dataDir != "" {
		fmt.Printf("craqrd: durable sessions under %s (fsync=%s); kill -9 and restart with the same -data-dir to recover\n", *dataDir, fsync)
	}
	if srcMode != server.SourceSimulated {
		fmt.Printf("craqrd: %s source template (late=%s); push observations at POST /v1/sessions/{s}/ingest\n", srcMode, latePolicy)
	}
	hint := *addr
	if strings.HasPrefix(hint, ":") {
		hint = "localhost" + hint
	}
	fmt.Printf("craqrd: listening on %s (try: curl -X POST -d 'ACQUIRE rain FROM RECT(0,0,4,4) RATE 3' %s/v1/sessions/default/queries)\n", *addr, hint)

	// Serve until a fatal listener error or a termination signal; on
	// SIGINT/SIGTERM stop accepting, give in-flight requests (including
	// open streams) a drain deadline, then stop every session's engine.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: httpServer}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		// Listener failure: drain the sessions before exiting (log.Fatal
		// would skip deferred calls).
		if cerr := manager.Close(); cerr != nil {
			log.Printf("craqrd: shutdown: %v", cerr)
		}
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		log.Printf("craqrd: signal received; draining (deadline %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Close the sessions first: engines stop, ingest queues and result
		// stores close, so parked streams end and Shutdown isn't held up
		// waiting for them to hit the deadline.
		if err := manager.Close(); err != nil {
			log.Printf("craqrd: session drain: %v", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("craqrd: http shutdown: %v", err)
		}
		log.Println("craqrd: bye")
	}
}
