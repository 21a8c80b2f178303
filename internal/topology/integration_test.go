package topology

import (
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// TestConcurrentIngestAndChurn drives ingestion from one goroutine while
// another inserts and deletes queries — the topology must stay consistent
// and never panic (run with -race to check synchronization).
func TestConcurrentIngestAndChurn(t *testing.T) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, Config{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Keep one stable query so ingestion always has a pipeline.
	if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 10}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stats.NewRNG(2)
		e := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := geom.Window{T0: float64(e), T1: float64(e + 1), Rect: grid.Region()}
			b := stream.Batch{Attr: "rain", Window: w}
			for i := 0; i < 200; i++ {
				b.Tuples = append(b.Tuples, stream.Tuple{
					ID: uint64(i), T: rng.Uniform(w.T0, w.T1),
					X: rng.Uniform(0, 8), Y: rng.Uniform(0, 8),
				})
			}
			if err := fab.Ingest(b); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			e++
		}
	}()
	rng := stats.NewRNG(3)
	for i := 0; i < 60; i++ {
		region := geom.NewRect(float64(rng.Intn(2)*2), float64(rng.Intn(2)*2), 8, 8)
		stored, err := fab.InsertQuery(query.Query{Attr: "rain", Region: region, Rate: 1 + rng.Float64()*30}, stream.NewCollector())
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.DeleteQuery(stored.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := fab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
