package topology

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

// TestEpochWorkersRule pins the pool-size rule: an explicit Workers is taken
// as given; a self-sized pool runs one worker per 2048 tuples in
// materialized cells, at least one and at most one per usable CPU.
func TestEpochWorkersRule(t *testing.T) {
	for _, c := range []struct{ workers, tuples, procs, want int }{
		{0, 0, 8, 1},
		{0, 2047, 8, 1},
		{0, 2048, 8, 1},
		{0, 4095, 8, 1},
		{0, 4096, 8, 2},
		{0, 8192, 8, 4},
		{0, 16384, 2, 2},
		{0, 1 << 20, 8, 8},
		{0, 1 << 20, 1, 1},
		{1, 1 << 20, 8, 1},
		{3, 0, 8, 3},
		{8, 100, 2, 8},
	} {
		if got := (Config{Workers: c.workers}).epochWorkers(c.tuples, c.procs); got != c.want {
			t.Errorf("Workers=%d, %d tuples, %d procs: %d workers, want %d", c.workers, c.tuples, c.procs, got, c.want)
		}
	}
}

// goroutineSink collects a subplan's stream and the goroutines that
// delivered it.
type goroutineSink struct {
	stream.Collector
	mu  sync.Mutex
	ids map[uint64]bool
}

func (s *goroutineSink) Process(b stream.Batch) error {
	s.mu.Lock()
	s.ids[goroutineID()] = true
	s.mu.Unlock()
	return s.Collector.Process(b)
}

// delivered returns the goroutines that delivered since the last call.
func (s *goroutineSink) delivered() map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.ids
	s.ids = map[uint64]bool{}
	return ids
}

// goroutineID reads the calling goroutine's number off its stack header,
// "goroutine N [running]:".
func goroutineID() uint64 {
	var buf [64]byte
	header := buf[:runtime.Stack(buf[:], false)]
	id, err := strconv.ParseUint(string(bytes.Fields(header)[1]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestSelfSizedPool runs a Workers: 0 fabricator and a serial one side by
// side: a 2048-tuple epoch must run on the calling goroutine, an 8192-tuple
// one on the pool — so no delivery happens on the caller — and the streams
// must be those of the serial run either way.
func TestSelfSizedPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	build := func(workers int) (*Fabricator, *goroutineSink) {
		grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
		if err != nil {
			t.Fatal(err)
		}
		fab, err := New(grid, Config{Workers: workers}, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		sink := &goroutineSink{ids: map[uint64]bool{}}
		if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: grid.Region(), Rate: 30}, sink); err != nil {
			t.Fatal(err)
		}
		return fab, sink
	}
	serial, want := build(1)
	auto, got := build(0)
	caller := goroutineID()
	for e, c := range []struct {
		tuples   int
		parallel bool
	}{{2048, false}, {8192, true}, {2048, false}, {8192, true}} {
		b := sourceBatch("rain", e, serial.grid.Region(), c.tuples)
		if err := serial.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := auto.Ingest(b); err != nil {
			t.Fatal(err)
		}
		ids := got.delivered()
		if len(ids) == 0 {
			t.Fatalf("epoch %d: nothing delivered", e)
		}
		if onCaller := ids[caller]; onCaller == c.parallel {
			t.Errorf("epoch %d (%d tuples): delivered on the calling goroutine = %v, want %v", e, c.tuples, onCaller, !c.parallel)
		}
	}
	if !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
		t.Errorf("self-sized pool's stream diverges from serial (%d vs %d tuples)", len(got.Tuples()), len(want.Tuples()))
	}
	if len(want.Tuples()) == 0 {
		t.Fatal("the serial run fabricated nothing; the comparison is vacuous")
	}
}

// countSink counts what it is handed and keeps nothing.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Process(b stream.Batch) error {
	s.n.Add(int64(len(b.Tuples)))
	return nil
}

// TestParallelEpochAllocatesNothing: a warm epoch on a four-worker pool
// allocates nothing — the pool's cursor, error slots and join live in the
// pooled epoch scratch, and workers start from a method value bound once.
func TestParallelEpochAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled epoch scratch")
	}
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(grid, Config{Workers: 4}, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	for _, r := range []geom.Rect{grid.Region(), geom.NewRect(1, 1, 5, 3)} {
		if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: r, Rate: 30}, sink); err != nil {
			t.Fatal(err)
		}
	}
	// Two epochs build the pooled epoch scratch and size every operator's
	// reused buffers to this batch; nothing an epoch keeps grows after that.
	b := sourceBatch("rain", 0, grid.Region(), 1024)
	for e := 0; e < 2; e++ {
		if err := fab.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := fab.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a parallel epoch allocates %v times, want 0", allocs)
	}
	if sink.n.Load() == 0 {
		t.Fatal("nothing was delivered; the measurement is vacuous")
	}
}
