// Command craqr-replay rebuilds a durable craqrd session offline exactly as
// a restart would — restore the older kept snapshot, replay the write-ahead
// log after it, check the result against the newer snapshot — without
// touching the files (read-only: torn tails are reported, not truncated,
// and nothing is snapshotted or deleted). It is the debugging counterpart
// of craqrd's crash recovery: point it at a -data-dir while the daemon is
// stopped and inspect exactly the state a restart would resume from.
//
//	craqr-replay -data-dir /var/lib/craqr              # list sessions
//	craqr-replay -data-dir /var/lib/craqr -session default
//	craqr-replay -data-dir /var/lib/craqr -session default -dump Q1 > q1.ndjson
//	craqr-replay -data-dir /var/lib/craqr -session default -dump-trace ingest.cqb
//
// -dump writes the query's retained results to stdout as ndjson, one result
// record a line, exactly the lines GET /v1/sessions/{s}/results/{q}/stream
// serves for those tuples:
//
//	{"id":7,"attr":"rain","t":3.25,"x":1.5,"y":2,"value":0.8,"sensor":12}
//
// -dump-trace re-encodes the session's journaled ingest pushes as a stream
// of binary wire frames (internal/wire, Content-Type application/x-craqr-batch).
// It covers only the retained suffix of the log: the segments behind the
// kept snapshots have been deleted.
// The trace file is byte-compatible with a streaming binary ingest body, so
// a production workload replays into a live session with
//
//	curl --data-binary @ingest.cqb -H 'Content-Type: application/x-craqr-batch' \
//	  'localhost:8080/v1/sessions/default/ingest?stream=1'
//
// The engine template (fleet size, grid, fields) must match the daemon's:
// both sides build it from internal/world plus the persisted session
// manifest, so only non-default craqrd flags (-sensors) need repeating.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/export"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/world"
)

func main() {
	dataDir := flag.String("data-dir", "", "craqrd durability root (required)")
	session := flag.String("session", "", "session name to replay (empty lists sessions)")
	nSensors := flag.Int("sensors", 0, "fleet size the daemon ran with (0 = default)")
	dump := flag.String("dump", "", "after replay, write this query's retained results as ndjson to stdout")
	dumpTrace := flag.String("dump-trace", "", "write the session's journaled ingest pushes as binary wire frames to this file (\"-\" = stdout) and exit")
	flag.Parse()
	if *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *session == "" {
		if err := listSessions(os.Stdout, *dataDir); err != nil {
			log.Fatalf("craqr-replay: %v", err)
		}
		return
	}

	spec, err := findSession(*dataDir, *session)
	if err != nil {
		log.Fatalf("craqr-replay: %v", err)
	}
	template := world.Template(*nSensors)
	template.Durability.Dir = *dataDir
	cfg, err := server.ConfigForSpec(template, spec)
	if err != nil {
		log.Fatalf("craqr-replay: %v", err)
	}
	if *dumpTrace != "" {
		if err := dumpTraceFile(cfg.Durability.Dir, *dumpTrace); err != nil {
			log.Fatalf("craqr-replay: dump-trace: %v", err)
		}
		return
	}
	e, err := replay(cfg)
	if err != nil {
		log.Fatalf("craqr-replay: replay failed: %v", err)
	}
	defer func() { _ = e.Shutdown() }()

	report(e, spec)
	if *dump != "" {
		if err := dumpResults(os.Stdout, e, *dump); err != nil {
			log.Fatalf("craqr-replay: dump: %v", err)
		}
	}
}

// replay rebuilds the session cfg describes read-only, with its clock
// stopped: inspect, don't advance.
func replay(cfg server.Config) (*server.Engine, error) {
	cfg.Durability.ReadOnly = true
	cfg.Clock = server.ClockConfig{}
	fields, err := world.Fields()
	if err != nil {
		return nil, err
	}
	return server.New(cfg, fields)
}

// dumpResults writes query id's retained results to w, one result record
// (export.AppendTupleJSON) a line.
func dumpResults(w io.Writer, e *server.Engine, id string) error {
	tuples, err := e.Results(id)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for _, tp := range tuples {
		if line, err = export.AppendTupleJSON(line[:0], tp); err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// listSessions writes the name of every durable session under root to w,
// one a line, sorted — the names -session takes. Manifests it cannot read
// are returned as the error, after the list.
func listSessions(w io.Writer, root string) error {
	specs, unreadable, err := server.DurableSpecs(root)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		fmt.Fprintln(w, spec.Name)
	}
	return unreadable
}

// findSession returns the persisted spec of the durable session named name.
func findSession(root, name string) (server.SessionSpec, error) {
	specs, unreadable, err := server.DurableSpecs(root)
	if err != nil {
		return server.SessionSpec{}, err
	}
	for _, spec := range specs {
		if spec.Name == name {
			return spec, nil
		}
	}
	return server.SessionSpec{}, errors.Join(fmt.Errorf("no durable session %q under %s", name, root), unreadable)
}

// dumpTraceFile walks the session's retained WAL segments read-only and
// re-encodes every TypePush record — tuples exactly as the producer sent
// them, plus the watermark assertion — as one binary wire frame. It needs
// no engine and no matching -sensors template: the push journal is
// self-contained.
func dumpTraceFile(sessionDir, out string) error {
	l, err := wal.Open(wal.Config{Dir: filepath.Join(sessionDir, "wal"), ReadOnly: true})
	if err != nil {
		return err
	}
	defer l.Close()

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var frame []byte
	frames, tuples := 0, 0
	rep, err := l.Replay(func(rec *wal.Record) error {
		if rec.Type != wal.TypePush {
			return nil
		}
		// Watermark-only pushes (no tuples) still matter: they assert event
		// time forward, and a replayed load should do the same.
		frame, err = wire.AppendFrame(frame[:0], wire.Batch{Watermark: rec.Watermark, Tuples: rec.Tuples})
		if err != nil {
			return err
		}
		if _, werr := bw.Write(frame); werr != nil {
			return werr
		}
		frames++
		tuples += len(rec.Tuples)
		return nil
	})
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace     %d frames, %d tuples (from %d WAL records)\n",
		frames, tuples, rep.Records)
	if rep.Torn {
		fmt.Fprintf(os.Stderr, "torn tail detected: trailing incomplete record skipped\n")
	}
	return nil
}

func report(e *server.Engine, spec server.SessionSpec) {
	ds := e.Durability()
	fmt.Fprintf(os.Stderr, "session   %s (source=%s)\n", spec.Name, e.SourceMode())
	fmt.Fprintf(os.Stderr, "replayed  %d WAL records (%d segments, %d bytes)\n",
		ds.ReplayedRecords, ds.WALSegments, ds.WALBytes)
	if ds.TornTail {
		fmt.Fprintf(os.Stderr, "torn tail detected: a restart would truncate the incomplete record\n")
	}
	if ds.SnapshotVerified {
		fmt.Fprintf(os.Stderr, "snapshot  verified at epoch %d\n", ds.LastSnapshotEpoch)
	}
	fmt.Fprintf(os.Stderr, "epochs    %d (now=%g)\n", e.Epochs(), e.Now())
	if wm, ok := e.Watermark(); ok {
		fmt.Fprintf(os.Stderr, "watermark %g\n", wm)
	}
	is := e.IngestStats()
	fmt.Fprintf(os.Stderr, "ingest    %d accepted, %d dropped, %d late, %d lateDropped, %d rejected\n",
		is.Ingested, is.Dropped, is.Late, is.LateDropped, is.Rejected)
	for _, q := range e.Queries() {
		store, err := e.ResultStore(q.ID)
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "query     %s %s rate=%g: %d tuples fabricated (%d retained, %d evicted)\n",
			q.ID, q.Attr, q.Rate, store.Total(), store.Len(), store.Dropped())
	}
}
