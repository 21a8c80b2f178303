package topology

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// buildParallelFixture assembles a fabricator with a mixed query load (full
// cell taps, partial overlaps, multi-cell merges) and one collector per
// query, using the given worker count.
func buildParallelFixture(t *testing.T, workers int) (*Fabricator, []*stream.Collector) {
	t.Helper()
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, Config{Workers: workers}, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 30},   // all cells
		{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 12},   // one cell
		{Attr: "rain", Region: geom.NewRect(1, 1, 5, 3), Rate: 7},    // partial overlaps
		{Attr: "rain", Region: geom.NewRect(2, 4, 8, 8), Rate: 3.5},  // multi-row merge
		{Attr: "temp", Region: geom.NewRect(0, 2, 6, 6), Rate: 9},    // second attribute
		{Attr: "temp", Region: geom.NewRect(5, 5, 7.5, 8), Rate: 21}, // partial, high rate
	}
	cols := make([]*stream.Collector, len(queries))
	for i, q := range queries {
		cols[i] = stream.NewCollector()
		if _, err := fab.InsertQuery(q, cols[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return fab, cols
}

// sourceBatch fabricates a deterministic raw batch across the whole region.
func sourceBatch(attr string, epoch int, region geom.Rect, n int) stream.Batch {
	rng := stats.NewRNG(int64(1000*epoch) + int64(len(attr)))
	b := stream.Batch{
		Attr:   attr,
		Window: geom.Window{T0: float64(epoch), T1: float64(epoch + 1), Rect: region},
	}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{
			ID:   uint64(epoch*n + i + 1),
			Attr: attr,
			T:    float64(epoch) + rng.Float64(),
			X:    rng.Uniform(region.MinX, region.MaxX),
			Y:    rng.Uniform(region.MinY, region.MaxY),
		})
	}
	return b
}

func runEpochs(t *testing.T, fab *Fabricator, epochs, tuplesPerEpoch int) {
	t.Helper()
	region := fab.grid.Region()
	for e := 0; e < epochs; e++ {
		for _, attr := range []string{"rain", "temp"} {
			if err := fab.Ingest(sourceBatch(attr, e, region, tuplesPerEpoch)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelMatchesSerial is the determinism golden test: a serial run and
// runs at several worker-pool sizes must produce byte-identical fabricated
// streams for every query.
func TestParallelMatchesSerial(t *testing.T) {
	fab, cols := buildParallelFixture(t, 1)
	runEpochs(t, fab, 8, 600)
	golden := make([][]stream.Tuple, len(cols))
	for i, c := range cols {
		golden[i] = c.Tuples()
	}
	if len(golden[0]) == 0 {
		t.Fatal("the all-cells query fabricated nothing; the comparison is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fab, cols := buildParallelFixture(t, workers)
			runEpochs(t, fab, 8, 600)
			for i, c := range cols {
				got := c.Tuples()
				if !reflect.DeepEqual(got, golden[i]) {
					t.Errorf("query %d: parallel stream diverges from serial (%d vs %d tuples)", i, len(got), len(golden[i]))
				}
			}
			if err := fab.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeyedRNGInsertionOrderInvariance: because cell pipelines fork their
// RNG by (seed, cell, attr) key and T-operators by output rate, inserting
// the same queries in a different order fabricates the same streams — both
// for disjoint cells and for queries sharing a cell (distinct rate nodes in
// one chain).
func TestKeyedRNGInsertionOrderInvariance(t *testing.T) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 4, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	build := func(reversed bool) []*stream.Collector {
		fab, err := New(grid, Config{Workers: 1}, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		queries := []query.Query{
			{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 10},
			{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 5}, // same cell, lower rate
			{Attr: "rain", Region: geom.NewRect(2, 2, 4, 4), Rate: 8}, // disjoint cell
		}
		cols := map[int]*stream.Collector{}
		order := []int{0, 1, 2}
		if reversed {
			order = []int{2, 1, 0}
		}
		for _, i := range order {
			cols[i] = stream.NewCollector()
			if _, err := fab.InsertQuery(queries[i], cols[i]); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < 4; e++ {
			if err := fab.Ingest(sourceBatch("rain", e, grid.Region(), 400)); err != nil {
				t.Fatal(err)
			}
		}
		return []*stream.Collector{cols[0], cols[1], cols[2]}
	}
	fwd := build(false)
	rev := build(true)
	for i := range fwd {
		if !reflect.DeepEqual(fwd[i].Tuples(), rev[i].Tuples()) {
			t.Errorf("query %d: stream depends on insertion order", i)
		}
	}
}
