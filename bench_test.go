// Benchmarks regenerating the reproduction's experiment suite (DESIGN.md
// section 9): one benchmark per experiment E1–E14 plus micro-benchmarks of
// the hot paths (samplers, operators, estimation, ingestion). Run with
//
//	go test -bench=. -benchmem
package craqr_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/inference"
	"repro/internal/ingest"
	"repro/internal/intensity"
	"repro/internal/mdpp"
	"repro/internal/planner"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/sensors"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wire"
)

// retime slides a batch's window to [t0, t0+1] and re-stamps every tuple's
// time inside it (preserving each tuple's fractional offset), the way real
// epochs arrive: estimators fit the window the events actually occupy.
// Iterating benchmarks previously slid the window while leaving tuple times
// at their original values, which puts every event outside the window's time
// range and makes the Poisson MLE degenerate (unbounded likelihood).
func retime(b *stream.Batch, frac []float64, t0 float64) {
	b.Window.T0, b.Window.T1 = t0, t0+1
	for i := range b.Tuples {
		b.Tuples[i].T = t0 + frac[i]
	}
}

// fracs captures each tuple's within-window time offset for retime.
func fracs(b stream.Batch) []float64 {
	out := make([]float64, len(b.Tuples))
	for i, tp := range b.Tuples {
		out[i] = tp.T - b.Window.T0
	}
	return out
}

// benchBatch builds a homogeneous batch of roughly n tuples on a 4×4 region.
func benchBatch(n int, seed int64) stream.Batch {
	region := geom.NewRect(0, 0, 4, 4)
	w := geom.Window{T0: 0, T1: 1, Rect: region}
	rng := stats.NewRNG(seed)
	b := stream.Batch{Attr: "temp", Window: w, Tuples: make([]stream.Tuple, n)}
	for i := 0; i < n; i++ {
		b.Tuples[i] = stream.Tuple{
			ID: uint64(i + 1), Attr: "temp",
			T: rng.Uniform(0, 1), X: rng.Uniform(0, 4), Y: rng.Uniform(0, 4),
		}
	}
	return b
}

// --- E1: topology construction -------------------------------------------

func BenchmarkTopologyConstruction(b *testing.B) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 6, 6), 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 12}, stream.NewCollector()); err != nil {
			b.Fatal(err)
		}
		if _, err := fab.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(4, 0, 6, 4), Rate: 8}, stream.NewCollector()); err != nil {
			b.Fatal(err)
		}
		if _, err := fab.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(1, 4, 3, 6), Rate: 3}, stream.NewCollector()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: thin --------------------------------------------------------------

func BenchmarkThin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			batch := benchBatch(n, 2)
			th, err := pmat.NewThin("t", 200, 100, stats.NewRNG(3))
			if err != nil {
				b.Fatal(err)
			}
			var sink stream.Counter
			th.AddDownstream(&sink)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := th.Process(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n))
		})
	}
}

// --- E3/E4: flatten ---------------------------------------------------------

func benchFlatten(b *testing.B, mode pmat.EstimatorMode, n int) {
	batch := benchBatch(n, 4)
	hot, err := intensity.NewHotspot(5, 50, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pmat.FlattenConfig{TargetRate: 20, Mode: mode}
	if mode == pmat.EstimatorKnown {
		cfg.Known = hot
	}
	fl, err := pmat.NewFlatten("f", cfg, stats.NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	var sink stream.Counter
	fl.AddDownstream(&sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.Process(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatten(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("mle/n=%d", n), func(b *testing.B) { benchFlatten(b, pmat.EstimatorMLE, n) })
		b.Run(fmt.Sprintf("known/n=%d", n), func(b *testing.B) { benchFlatten(b, pmat.EstimatorKnown, n) })
	}
}

// BenchmarkFlattenSteady is the F-operator as a session runs it: one Flatten,
// a window that advances one epoch per batch, and different tuples in every
// batch (a ring of independently sampled ones), so each fit warm-starts from
// the previous epoch's optimum on data it has not seen. iters/fit is the mean
// Newton iterations per batch; a fit costs one pass over the batch more.
func BenchmarkFlattenSteady(b *testing.B) {
	for _, n := range []int{128, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			region := geom.NewRect(0, 0, 4, 4)
			w := geom.Window{T0: 0, T1: 1, Rect: region}
			rate := float64(n) / w.Volume()
			proc, err := mdpp.NewInhomogeneous(intensity.NewLinear(intensity.Theta{0.7 * rate, 0.3 * rate, 0.05 * rate, -0.025 * rate}), region)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(8)
			batches := make([]stream.Batch, 16)
			offsets := make([][]float64, len(batches))
			for k := range batches {
				ev, err := proc.Sample(w, rng)
				if err != nil {
					b.Fatal(err)
				}
				batches[k] = stream.Batch{Attr: "temp", Window: w, Tuples: make([]stream.Tuple, len(ev))}
				for i, e := range ev {
					batches[k].Tuples[i] = stream.Tuple{ID: uint64(i + 1), Attr: "temp", T: e.T, X: e.X, Y: e.Y}
				}
				offsets[k] = fracs(batches[k])
			}
			fl, err := pmat.NewFlatten("f", pmat.FlattenConfig{TargetRate: rate / 4}, stats.NewRNG(9))
			if err != nil {
				b.Fatal(err)
			}
			var sink stream.Counter
			fl.AddDownstream(&sink)
			iters := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(batches)
				retime(&batches[k], offsets[k], float64(i))
				if err := fl.Process(batches[k]); err != nil {
					b.Fatal(err)
				}
				iters += fl.LastReport().FitIterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/fit")
		})
	}
}

func BenchmarkFlattenViolations(b *testing.B) {
	// Over-requested flatten: every tuple is a violation; measures the
	// violation-accounting path (E4).
	batch := benchBatch(5000, 6)
	fl, err := pmat.NewFlatten("f", pmat.FlattenConfig{
		TargetRate: 10 * batch.MeasuredRate(),
		Mode:       pmat.EstimatorKnown,
		Known:      intensity.Constant{Rate: batch.MeasuredRate()},
	}, stats.NewRNG(7))
	if err != nil {
		b.Fatal(err)
	}
	var sink stream.Counter
	fl.AddDownstream(&sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fl.Process(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: partition/union -----------------------------------------------------

// BenchmarkPartitionUnion times a P-operator feeding k branches into one
// U-operator. The U-operator merges only in the operator-graph walk the
// compiled epoch program is tested against, so this times oracle code, not
// a production path, and scripts/bench_guard.sh does not guard it.
func BenchmarkPartitionUnion(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			region := geom.NewRect(0, 0, 4, 4)
			part, err := pmat.NewPartition("p", region)
			if err != nil {
				b.Fatal(err)
			}
			rects := make([]geom.Rect, k)
			wStep := 4.0 / float64(k)
			for i := 0; i < k; i++ {
				rects[i] = geom.NewRect(float64(i)*wStep, 0, float64(i+1)*wStep, 4)
			}
			uni, err := pmat.NewUnion("u", rects...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				port, err := part.AddBranch(fmt.Sprintf("b%d", i), rects[i])
				if err != nil {
					b.Fatal(err)
				}
				in, err := uni.Input(i)
				if err != nil {
					b.Fatal(err)
				}
				port.AddDownstream(in)
			}
			var sink stream.Counter
			uni.AddDownstream(&sink)
			batch := benchBatch(5000, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Vary the window per iteration so union slices are distinct.
				batch.Window.T0 = float64(i)
				batch.Window.T1 = float64(i + 1)
				if err := part.Process(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: budget tuning closed loop -------------------------------------------

func BenchmarkBudgetTuning(b *testing.B) {
	fields := map[string]sensors.Field{"c": sensors.ConstantField{Name: "c", V: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := server.New(server.Config{
			Region:    geom.NewRect(0, 0, 8, 8),
			GridCells: 16,
			Epoch:     1,
			Budget:    budget.Config{Initial: 10, Delta: 5, Min: 2, Max: 200, ViolationThreshold: 10},
			Fleet: sensors.FleetConfig{
				N:        200,
				Response: sensors.ResponseModel{BaseProb: 0.6, MaxProb: 0.95, IncentiveScale: 1},
			},
			Seed: int64(i),
		}, fields)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Submit(query.Query{Attr: "c", Region: geom.NewRect(0, 0, 8, 8), Rate: 3}); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: shared vs naive -------------------------------------------------------

func benchFabricator(b *testing.B, shared bool, k int) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 6, 6), 9)
	if err != nil {
		b.Fatal(err)
	}
	var fabs []*topology.Fabricator
	mk := func(seed int64) *topology.Fabricator {
		f, err := topology.New(grid, topology.Config{}, stats.NewRNG(seed))
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	if shared {
		fabs = []*topology.Fabricator{mk(1)}
	}
	for i := 0; i < k; i++ {
		q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 40 / float64(i+1)}
		if shared {
			if _, err := fabs[0].InsertQuery(q, stream.NewCollector()); err != nil {
				b.Fatal(err)
			}
		} else {
			f := mk(int64(i + 1))
			if _, err := f.InsertQuery(q, stream.NewCollector()); err != nil {
				b.Fatal(err)
			}
			fabs = append(fabs, f)
		}
	}
	batch := benchBatch(3000, 9)
	batch.Attr = "rain"
	batch.Window.Rect = grid.Region()
	fr := fracs(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retime(&batch, fr, float64(i))
		for _, f := range fabs {
			if err := f.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSharedVsNaive(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) { benchFabricator(b, true, k) })
		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) { benchFabricator(b, false, k) })
	}
}

// --- E8: end-to-end throughput ----------------------------------------------

func benchEndToEnd(b *testing.B, workers int) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 12, 12), 36)
	if err != nil {
		b.Fatal(err)
	}
	fab, err := topology.New(grid, topology.Config{Workers: workers}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	for i := 0; i < 16; i++ {
		q0 := rng.Intn(5)
		r0 := rng.Intn(6)
		region := geom.NewRect(float64(q0)*2, float64(r0)*2, float64(q0+2)*2, float64(r0+1)*2)
		if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: region, Rate: 1 + rng.Float64()*20}, stream.NewCollector()); err != nil {
			b.Fatal(err)
		}
	}
	batch := benchBatch(10000, 3)
	batch.Attr = "rain"
	batch.Window.Rect = grid.Region()
	fr := fracs(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retime(&batch, fr, float64(i))
		if err := fab.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(batch.Len()))
}

func BenchmarkEndToEnd(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchEndToEnd(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchEndToEnd(b, 0) })
}

// BenchmarkSharded measures the sharded epoch executor across worker-pool
// sizes on a wide topology (256 cells, 64 queries): the per-cell
// independence of the paper's Section V topologies is the shard boundary.
func BenchmarkSharded(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			grid, err := geom.NewGrid(geom.NewRect(0, 0, 32, 32), 256)
			if err != nil {
				b.Fatal(err)
			}
			fab, err := topology.New(grid, topology.Config{Workers: workers}, stats.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(2)
			for i := 0; i < 64; i++ {
				q0, r0 := rng.Intn(15), rng.Intn(15)
				region := geom.NewRect(float64(q0)*2, float64(r0)*2, float64(q0+2)*2, float64(r0+2)*2)
				if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: region, Rate: 1 + rng.Float64()*20}, stream.NewCollector()); err != nil {
					b.Fatal(err)
				}
			}
			batch := benchBatch(20000, 3)
			batch.Attr = "rain"
			batch.Window.Rect = grid.Region()
			for i := range batch.Tuples {
				batch.Tuples[i].X = rng.Uniform(0, 32)
				batch.Tuples[i].Y = rng.Uniform(0, 32)
			}
			fr := fracs(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				retime(&batch, fr, float64(i))
				if err := fab.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(batch.Len()))
		})
	}
}

// --- E9: estimation ------------------------------------------------------------

func benchEvents(b *testing.B, n int) ([]mdpp.Event, geom.Window) {
	region := geom.NewRect(0, 0, 8, 8)
	w := geom.Window{T0: 0, T1: float64(n) / (64 * 10), Rect: region}
	proc, err := mdpp.NewInhomogeneous(intensity.NewLinear(intensity.Theta{10, 0.2, -0.1, 0.3}), region)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := proc.Sample(w, stats.NewRNG(4))
	if err != nil {
		b.Fatal(err)
	}
	return ev, w
}

// BenchmarkMLE fits one batch cold on a window starting at t0: the t0=1e6
// rows (a session 2.3 days old at the default tick) must cost what the t0=0
// rows do.
func BenchmarkMLE(b *testing.B) {
	for _, n := range []int{128, 1000, 10000} {
		for _, at := range []struct {
			name string
			t0   float64
		}{{"0", 0}, {"1e6", 1e6}} {
			t0 := at.t0
			b.Run(fmt.Sprintf("n=%d/t0=%s", n, at.name), func(b *testing.B) {
				ev, w := benchEvents(b, n)
				for i := range ev {
					ev[i].T += t0
				}
				w.T0, w.T1 = w.T0+t0, w.T1+t0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := estimate.FitMLE(ev, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSGD(b *testing.B) {
	ev, w := benchEvents(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.FitSGD(ev, w, 16, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: query churn at scale ----------------------------------------------

// churnPool returns a fixed pool of distinct query shapes (cell-aligned
// regions × a few rates) that the churn benchmark cycles through, so a
// sharing fabricator converges on at most len(pool) subplans however many
// queries are resident.
func churnPool() []query.Query {
	rates := []float64{2, 5, 11, 23}
	var pool []query.Query
	for q0 := 0; q0 < 3; q0++ {
		for r0 := 0; r0 < 3; r0++ {
			x0, y0 := float64(q0)*2, float64(r0)*2
			for i, rate := range rates {
				w := float64(2 + 2*(i%2)) // 2- and 4-unit wide regions
				pool = append(pool, query.Query{Attr: "rain", Region: geom.NewRect(x0, y0, x0+w, y0+2), Rate: rate})
			}
		}
	}
	return pool
}

// benchQueryChurn holds `resident` queries from churnPool live, then each
// iteration performs one steady-state churn step: delete the oldest
// resident, submit a replacement, run one full epoch. The topology holds one
// subplan per distinct pool entry regardless of the resident count — epoch
// cost and memory track the pool size, not the query count (the
// sublinearity claim; TestSharedChurnSublinear proves it exactly via
// operator counts).
func benchQueryChurn(b *testing.B, resident int) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		b.Fatal(err)
	}
	fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	pool := churnPool()
	ids := make([]string, 0, resident)
	submit := func(i int) {
		stored, err := fab.InsertQuery(pool[i%len(pool)], stream.NewResultStore(64))
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, stored.ID)
	}
	for i := 0; i < resident; i++ {
		submit(i)
	}
	batch := benchBatch(4096, 3)
	batch.Attr = "rain"
	batch.Window.Rect = grid.Region()
	fr := fracs(batch)
	// Resident memory per query: everything reachable after setup divided
	// by the query count, sinks included. A query that joins a resident
	// subplan brings only its handle, and the rings number at most
	// len(pool). BenchmarkResultFanout measures the ring sharing at a
	// realistic retention.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapPerQuery := float64(ms.HeapAlloc) / float64(resident)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fab.DeleteQuery(ids[0]); err != nil {
			b.Fatal(err)
		}
		ids = ids[1:]
		submit(resident + i)
		retime(&batch, fr, float64(i))
		if err := fab.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	// Reported after the loop: ResetTimer clears extra metrics.
	b.ReportMetric(heapPerQuery, "heapB/query")
}

// BenchmarkQueryChurn measures sustained submit/delete churn with an epoch
// per step at 1k and 10k resident queries. Sublinear epoch cost shows as
// ns/op staying flat from resident=1000 to resident=10000. Wired into
// scripts/bench.sh (default -bench '.') and guarded by scripts/bench_guard.sh.
func BenchmarkQueryChurn(b *testing.B) {
	for _, resident := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("resident=%d/shared", resident), func(b *testing.B) {
			benchQueryChurn(b, resident)
		})
	}
}

// BenchmarkResultFanout measures what one more member of a subplan costs:
// `members` identical queries with 4096-tuple result stores ride one
// subplan, and each op is one 4096-tuple epoch. The acquired stream exists
// once, so ns/op, B/op and the heap the fabricator and its stores hold
// (heapB/ring, measured after a first epoch has filled the ring; heapB/query
// is the same divided by members) stay flat in members. Guarded by
// scripts/bench_guard.sh.
func BenchmarkResultFanout(b *testing.B) {
	for _, members := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
			if err != nil {
				b.Fatal(err)
			}
			batch := benchBatch(4096, 3)
			batch.Attr = "rain"
			batch.Window.Rect = grid.Region()
			fr := fracs(batch)
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			fab, err := topology.New(grid, topology.Config{}, stats.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			stores := make([]*stream.ResultStore, members)
			for i := range stores {
				stores[i] = stream.NewResultStore(4096)
				if _, err := fab.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 23}, stores[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := fab.Ingest(batch); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap := float64(ms.HeapAlloc - before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				retime(&batch, fr, float64(i+1))
				if err := fab.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got, want := stores[members-1].Total(), stores[0].Total(); got == 0 || got != want {
				b.Fatalf("last member saw %d tuples, first %d", got, want)
			}
			// Reported after the loop: ResetTimer clears extra metrics.
			b.ReportMetric(heap, "heapB/ring")
			b.ReportMetric(heap/float64(members), "heapB/query")
		})
	}
}

// fanoutForms lists the 64 (attribute, region, rate) forms of bench/'s
// epoch_fanout workload (bench/workload.go, fanoutQueries): on rain and temp,
// quadrant-scale regions, cell pairs and offset regions that straddle cell
// borders, at four rates — so cells carry T-chains, regions span cells (P
// taps, U merges) and every form recurs.
func fanoutForms() []query.Query {
	var forms []query.Query
	rates := []float64{1, 2, 4, 8}
	add := func(attr string, x0, y0, x1, y1 float64) {
		forms = append(forms, query.Query{Attr: attr, Region: geom.NewRect(x0, y0, x1, y1), Rate: rates[len(forms)%4]})
	}
	for _, attr := range []string{"rain", "temp"} {
		for qy := 0.0; qy < 8; qy += 4 {
			for qx := 0.0; qx < 8; qx += 4 {
				add(attr, qx, qy, qx+4, qy+4)
				add(attr, qx, qy, qx+4, qy+4)
			}
		}
		for cy := 0.0; cy < 8; cy += 2 {
			for cx := 0.0; cx < 8; cx += 4 {
				add(attr, cx, cy, cx+4, cy+2)
				add(attr, cx, cy, cx+4, cy+2)
			}
		}
		for k := 0.0; k < 8; k++ {
			add(attr, 1+k/4, 0.5+k/4, 5+k/4, 3.5+k/4)
		}
	}
	return forms
}

// BenchmarkEpochFanout is the epoch of bench/'s epoch_fanout workload without
// the daemon around it: 512 resident queries — a full-region probe and 511
// members cycling over fanoutForms — inserted as Engine.Submit inserts them,
// through Fabricator.InsertQuery, with 4096-tuple result stores (bench/'s
// in-process twin still goes through InsertQueryMerge, which is the same
// call) — and per op one (T, ID)-sorted 2048-tuple batch
// for each of the two attributes through Fabricator.Ingest on one worker,
// which runs the compiled position program, merge phase included. It must
// stay at 0 allocs/op. Guarded by scripts/bench_guard.sh.
func BenchmarkEpochFanout(b *testing.B) {
	b.Run("program", func(b *testing.B) {
		grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
		if err != nil {
			b.Fatal(err)
		}
		fab, err := topology.New(grid, topology.Config{Workers: 1}, stats.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		forms := fanoutForms()
		for i := 0; i < 512; i++ {
			q := query.Query{Attr: "rain", Region: grid.Region(), Rate: 1}
			if i > 0 {
				q = forms[(i-1)%len(forms)]
			}
			if _, err := fab.InsertQuery(q, stream.NewResultStore(4096)); err != nil {
				b.Fatal(err)
			}
		}
		var batches [2]stream.Batch
		var fr [2][]float64
		for i, attr := range []string{"rain", "temp"} {
			batch := benchBatch(2048, int64(3+i))
			batch.Attr = attr
			batch.Window.Rect = grid.Region()
			for j := range batch.Tuples {
				tp := &batch.Tuples[j]
				tp.Attr, tp.X, tp.Y = attr, 2*tp.X, 2*tp.Y
			}
			stream.SortTuples(batch.Tuples)
			batches[i], fr[i] = batch, fracs(batch)
		}
		epoch := func(e int) {
			for i := range batches {
				retime(&batches[i], fr[i], float64(e))
				if err := fab.Ingest(batches[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		for e := 0; e < 8; e++ {
			epoch(e) // compile, warm the estimators and the scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(8 + i)
		}
		b.StopTimer()
		if st := fab.SharedStats(); st.Queries != 512 || st.Subplans != 65 {
			b.Fatalf("fixture drifted from the workload's shape: %+v", st)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/tuple")
	})
}

// --- E11–E14: extension experiments (run via the harness in Quick mode) -------

func benchExperiment(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(experiments.Options{Seed: int64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncentives(b *testing.B)  { benchExperiment(b, experiments.E11Incentives) }
func BenchmarkTChainOrder(b *testing.B) { benchExperiment(b, experiments.E13TChainOrder) }
func BenchmarkGPSError(b *testing.B)    { benchExperiment(b, experiments.E14GPSError) }

// --- result store: bounded retention and cursor reads ------------------------

// BenchmarkResultStore measures the serving-side result path: steady-state
// ring writes (the wrap variant overwrites constantly, the roomy variant
// never wraps) and cursor-paginated reads into borrowed buffers, which must
// stay allocation-free.
func BenchmarkResultStore(b *testing.B) {
	batch := benchBatch(512, 14)
	b.Run("write/retention=65536", func(b *testing.B) {
		store := stream.NewResultStore(1 << 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.Process(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(batch.Len()))
	})
	b.Run("write/wrap/retention=1024", func(b *testing.B) {
		store := stream.NewResultStore(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.Process(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(batch.Len()))
	})
	b.Run("read/cursor", func(b *testing.B) {
		store := stream.NewResultStore(1 << 14)
		for i := 0; i < 32; i++ {
			if err := store.Process(batch); err != nil {
				b.Fatal(err)
			}
		}
		buf := stream.BorrowTuples(512)
		defer buf.Release()
		var cursor uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, next, _ := store.ReadFrom(cursor, 512, buf.Tuples[:0])
			if len(out) == 0 {
				cursor = 0 // wrapped past the end; restart the scan
				continue
			}
			cursor = next
		}
		b.SetBytes(512)
	})
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkPoisson(b *testing.B) {
	for _, mean := range []float64{5, 500} {
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = rng.Poisson(mean)
			}
		})
	}
}

func BenchmarkHomogeneousSampling(b *testing.B) {
	region := geom.NewRect(0, 0, 4, 4)
	proc, err := mdpp.NewHomogeneous(100, region)
	if err != nil {
		b.Fatal(err)
	}
	w := geom.Window{T0: 0, T1: 1, Rect: region}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Sample(w, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThinningSampler(b *testing.B) {
	region := geom.NewRect(0, 0, 4, 4)
	hot, err := intensity.NewHotspot(10, 90, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := mdpp.NewInhomogeneous(hot, region)
	if err != nil {
		b.Fatal(err)
	}
	w := geom.Window{T0: 0, T1: 1, Rect: region}
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Sample(w, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridOverlap(b *testing.B) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 32, 32), 256)
	if err != nil {
		b.Fatal(err)
	}
	queryRect := geom.NewRect(3, 3, 21, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ovs := grid.Overlapping(queryRect); len(ovs) == 0 {
			b.Fatal("no overlaps")
		}
	}
}

func BenchmarkInferenceBias(b *testing.B) { benchExperiment(b, experiments.E15InferenceBias) }

func BenchmarkPlannerChooseMergeMode(b *testing.B) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 32, 32), 256)
	if err != nil {
		b.Fatal(err)
	}
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 16, 8), Rate: 5}
	w := planner.DefaultWeights()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := planner.ChooseMergeMode(grid, q, 1, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONLinesExport renders a 1000-tuple batch as ndjson with the
// sink's append encoder (0 allocs/op). full is benchBatch's full-precision
// floats, which wire.AppendJSONFloat's short-decimal test misses and hands to
// strconv — the cost of the miss; short is what sensors report and an
// acquired stream therefore delivers (times and positions in 1/1000s, values
// in 1/100s — bench/'s egress_json shape).
func BenchmarkJSONLinesExport(b *testing.B) {
	full := benchBatch(1000, 12)
	short := stream.Batch{Attr: full.Attr, Window: full.Window, Tuples: make([]stream.Tuple, len(full.Tuples))}
	for i, tp := range full.Tuples {
		tp.T, tp.X, tp.Y = math.Floor(tp.T*1000)/1000, math.Floor(tp.X*1000)/1000, math.Floor(tp.Y*1000)/1000
		tp.Value, tp.Sensor = float64(i*37%10000)/100, i%512
		short.Tuples[i] = tp
	}
	for _, c := range []struct {
		name  string
		batch stream.Batch
	}{{"full", full}, {"short", short}} {
		b.Run(c.name, func(b *testing.B) {
			sink, err := export.NewJSONLinesSink(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sink.Process(c.batch); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(c.batch.Len()))
		})
	}
}

func BenchmarkCoverageEstimator(b *testing.B) {
	batch := benchBatch(5000, 13)
	est, err := inference.NewCoverageEstimator(0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := est.Process(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(batch.Len()))
}

// --- external ingestion: decode → enqueue → epoch assembly -------------------

// ingestPayloads renders one n-observation batch in both wire forms: the
// JSON body of POST /ingest and the equivalent binary frame
// (Content-Type application/x-craqr-batch). Tuple times span [0,1) so full-
// path benchmarks can slide them one epoch per iteration.
func ingestPayloads(b *testing.B, n int) (jsonBody, frame []byte) {
	type obsJSON struct {
		ID    uint64  `json:"id"`
		T     float64 `json:"t"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Value float64 `json:"value"`
	}
	type batchJSON struct {
		Attr         string    `json:"attr"`
		Observations []obsJSON `json:"observations"`
	}
	body := batchJSON{Attr: "co2"}
	batch := wire.Batch{Attr: "co2", Watermark: math.NaN()}
	for i := 0; i < n; i++ {
		o := obsJSON{
			ID: uint64(i + 1), T: float64(i) / float64(n),
			X: float64(i%8) + 0.5, Y: float64((i/8)%8) + 0.5, Value: 400,
		}
		body.Observations = append(body.Observations, o)
		batch.Tuples = append(batch.Tuples, stream.Tuple{
			ID: o.ID, Attr: "co2", T: o.T, X: o.X, Y: o.Y, Value: o.Value, Sensor: -1,
		})
	}
	jsonBody, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	frame, err = wire.AppendFrame(nil, batch)
	if err != nil {
		b.Fatal(err)
	}
	return jsonBody, frame
}

// obs7Body renders n observations the way bench/'s egress_json producer
// does: all seven fields per observation (attr and sensor included, no batch
// default), times and positions in 1/1000s, values in 1/100s, no whitespace.
func obs7Body(n int) []byte {
	body := []byte(`{"observations":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		r := uint64(i+1) * 0x9e3779b97f4a7c15
		body = fmt.Appendf(body, `{"id":%d,"attr":"rain","t":%g,"x":%g,"y":%g,"value":%g,"sensor":%d}`,
			i+1, 7+float64(r%1000)/1000, float64((r>>10)%8000)/1000, float64((r>>24)%8000)/1000,
			float64((r>>40)%10000)/100, (r>>54)%512)
	}
	return append(body, ']', '}')
}

// reportTuples converts the run into a tuples/s rate — the number the
// ingest acceptance targets track.
func reportTuples(b *testing.B, n int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/s, "tuples/s")
	}
}

// BenchmarkWireDecode isolates the decode stage of the ingest gateway:
// internal/wire parsing one observation batch from its JSON body or binary
// frame into borrowed tuple storage. Steady state must not allocate —
// TestDecodeJSONZeroAllocs/TestDecodeBinaryZeroAllocs pin allocs/op to 0.
func BenchmarkWireDecode(b *testing.B) {
	decodeJSON := func(name string, body []byte, n int) {
		b.Run(name, func(b *testing.B) {
			d := wire.BorrowDecoder()
			defer d.Release()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeJSON(body); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
	decodeJSON("json-obs7/n=1024", obs7Body(1024), 1024)
	for _, n := range []int{64, 1024} {
		jsonBody, frame := ingestPayloads(b, n)
		decodeJSON(fmt.Sprintf("json/n=%d", n), jsonBody, n)
		b.Run(fmt.Sprintf("binary/n=%d", n), func(b *testing.B) {
			d := wire.BorrowDecoder()
			defer d.Release()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeBinary(frame); err != nil {
					b.Fatal(err)
				}
			}
			reportTuples(b, n)
		})
	}
}

// BenchmarkIngestAck renders one ingest ack (the response body of POST
// /ingest) into a reused buffer — the pooled replacement for a per-request
// json.Encoder. Steady state must not allocate.
func BenchmarkIngestAck(b *testing.B) {
	ack := ingest.Ack{Accepted: 64, Late: 3, Watermark: 41.5, Pending: 128}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = server.AppendIngestAck(buf[:0], ack, "")
	}
	_ = buf
}

// BenchmarkIngest measures the push-gateway hot path end to end per codec:
// decoding one observation batch (JSON body or binary frame, via
// internal/wire), enqueueing it into the bounded watermark queue, and
// assembling the epoch (drain, (T,ID) sort, per-attribute grouping). The
// enqueue+drain sub-benchmark runs the same path minus the decode, so the
// codec cost is the difference. The frames number their observations in
// ascending order, as every bench/ corpus does, so the queue's duplicate
// window answers from its high-water mark; ids=shuffled is the same binary
// path with the frame's IDs permuted, so the window indexes itself on the
// frame's first descent and probes every tuple after it. tuples/s is the
// tracked rate; steady-state storage is borrowed, so allocs/op stays near
// zero.
func BenchmarkIngest(b *testing.B) {
	region := geom.NewRect(0, 0, 8, 8)
	// fullPath decodes each iteration's batch of n with decode, slides its
	// tuples one epoch forward, pushes, and closes the epoch.
	fullPath := func(n, wireBytes int, decode func(d *wire.Decoder) (wire.Batch, error)) func(b *testing.B) {
		return func(b *testing.B) {
			q := ingest.NewQueue(ingest.Config{Buffer: 1 << 16, Region: region})
			src, err := ingest.NewQueueSource(q, region)
			if err != nil {
				b.Fatal(err)
			}
			d := wire.BorrowDecoder()
			defer d.Release()
			b.SetBytes(int64(wireBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, err := decode(d)
				if err != nil {
					b.Fatal(err)
				}
				// Producer time marches one epoch per iteration.
				epoch := float64(i)
				for j := range batch.Tuples {
					batch.Tuples[j].T += epoch
				}
				ack, err := q.Push(batch.Tuples, epoch+1)
				if err != nil {
					b.Fatal(err)
				}
				if ack.Accepted != n {
					b.Fatalf("ack = %+v", ack)
				}
				out, err := src.Acquire(epoch, epoch+1)
				if err != nil {
					b.Fatal(err)
				}
				if len(out["co2"].Tuples) != n {
					b.Fatalf("assembled %d tuples", len(out["co2"].Tuples))
				}
			}
			reportTuples(b, n)
		}
	}
	for _, n := range []int{64, 1024} {
		jsonBody, frame := ingestPayloads(b, n)
		b.Run(fmt.Sprintf("decode+push+drain/n=%d", n),
			fullPath(n, len(jsonBody), func(d *wire.Decoder) (wire.Batch, error) { return d.DecodeJSON(jsonBody) }))
		b.Run(fmt.Sprintf("binary/decode+push+drain/n=%d", n),
			fullPath(n, len(frame), func(d *wire.Decoder) (wire.Batch, error) { return d.DecodeBinary(frame) }))

		b.Run(fmt.Sprintf("enqueue+drain/n=%d", n), func(b *testing.B) {
			q := ingest.NewQueue(ingest.Config{Buffer: 1 << 16, Region: region})
			src, err := ingest.NewQueueSource(q, region)
			if err != nil {
				b.Fatal(err)
			}
			d := wire.BorrowDecoder()
			template, err := d.DecodeJSON(jsonBody)
			if err != nil {
				b.Fatal(err)
			}
			tuples := append([]stream.Tuple(nil), template.Tuples...)
			d.Release()
			buf := stream.BorrowTuples(n)
			defer buf.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch := float64(i)
				buf.Tuples = buf.Tuples[:0]
				for j := range tuples {
					tp := tuples[j]
					tp.T += epoch
					buf.Tuples = append(buf.Tuples, tp)
				}
				ack, err := q.Push(buf.Tuples, epoch+1)
				if err != nil {
					b.Fatal(err)
				}
				if ack.Accepted != n {
					b.Fatalf("ack = %+v", ack)
				}
				out, err := src.Acquire(epoch, epoch+1)
				if err != nil {
					b.Fatal(err)
				}
				if len(out["co2"].Tuples) != n {
					b.Fatalf("assembled %d tuples", len(out["co2"].Tuples))
				}
			}
			reportTuples(b, n)
		})
	}

	const n = 1024
	_, frame := ingestPayloads(b, n)
	d := wire.BorrowDecoder()
	batch, err := d.DecodeBinary(frame)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range stats.NewRNG(1).Perm(n) {
		batch.Tuples[i].ID = uint64(p + 1)
	}
	shuffled, err := wire.AppendFrame(nil, batch)
	d.Release()
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("binary/decode+push+drain/ids=shuffled/n=%d", n),
		fullPath(n, len(shuffled), func(d *wire.Decoder) (wire.Batch, error) { return d.DecodeBinary(shuffled) }))
}

// BenchmarkEpochAssembly isolates the serial prefix of an epoch — everything
// between "the watermark reached t1" and "the cell shards fan out" on the
// ingest side: QueueSource.Acquire detaching the due tuples, ordering them
// per attribute by (T, ID) and grouping them into batches. Only Acquire is
// timed (the pushes that fill the queue are not); ns/tuple is the tracked
// figure. The shapes are the end-to-end benchmark's: 16384 tuples of one
// attribute arriving as 64 frames (ingest_flood), 4096 tuples alternating
// between two attributes in one frame (epoch_fanout), the same spread over
// eight attributes, and a single-attribute epoch that arrives already in
// (T, ID) order. Event times are thousandths of the epoch in random order
// with ascending IDs, as the benchmark's corpus generates them. onebucket is
// the ordering pass's worst case on the 4096x2attr shape: the same
// thousandths squeezed into the first 2⁻¹³ of the epoch, with one tuple per
// attribute at three quarters of it, so each run's counting pass puts all but
// one key into a single bucket and a nested pass orders them.
func BenchmarkEpochAssembly(b *testing.B) {
	region := geom.NewRect(0, 0, 8, 8)
	attrs := []string{"rain", "temp", "wind", "co2", "no2", "pm10", "pm25", "o3"}
	for _, shape := range []struct {
		name                 string
		n, frames, attrs     int
		presorted, onebucket bool
	}{
		{name: "16384x1attr", n: 16384, frames: 64, attrs: 1},
		{name: "4096x2attr", n: 4096, frames: 1, attrs: 2},
		{name: "4096x8attr", n: 4096, frames: 1, attrs: 8},
		{name: "presorted", n: 4096, frames: 1, attrs: 1, presorted: true},
		{name: "onebucket", n: 4096, frames: 1, attrs: 2, onebucket: true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			q := ingest.NewQueue(ingest.Config{Buffer: 4 * shape.n, Region: region})
			src, err := ingest.NewQueueSource(q, region)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(21)
			tuples := make([]stream.Tuple, shape.n)
			frac := make([]float64, shape.n)
			for i := range tuples {
				frac[i] = float64(rng.Intn(1000)) / 1000
				if shape.presorted {
					frac[i] = float64(i) / float64(shape.n)
				}
				if shape.onebucket {
					frac[i] /= 1 << 13
					if i < shape.attrs {
						frac[i] = 0.75
					}
				}
				tuples[i] = stream.Tuple{
					Attr: attrs[i%shape.attrs],
					X:    rng.Float64() * 8, Y: rng.Float64() * 8, Value: 1, Sensor: -1,
				}
			}
			perFrame := shape.n / shape.frames
			var busy time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch := float64(i + 1)
				for j := range tuples {
					tuples[j].ID = uint64(i*shape.n + j + 1)
					tuples[j].T = epoch + frac[j]
				}
				for f := 0; f < shape.frames; f++ {
					wm := math.NaN()
					if f == shape.frames-1 {
						wm = epoch + 1
					}
					if _, err := q.Push(tuples[f*perFrame:(f+1)*perFrame], wm); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				out, err := src.Acquire(epoch, epoch+1)
				busy += time.Since(start)
				if err != nil || len(out) != shape.attrs {
					b.Fatalf("Acquire = %d attrs, %v", len(out), err)
				}
			}
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N*shape.n), "ns/tuple")
		})
	}
}

// BenchmarkWALAppend measures the durability write path per fsync policy:
// one accepted 64-observation push batch appended (and, for always,
// synced) per iteration. The batch policy amortizes fsyncs via Commit
// group-commit, so its per-append cost should sit near never while still
// bounding ack durability.
func BenchmarkWALAppend(b *testing.B) {
	const n = 64
	tuples := make([]stream.Tuple, n)
	for i := range tuples {
		tuples[i] = stream.Tuple{
			ID: uint64(i + 1), Attr: "co2", T: float64(i) / n,
			X: float64(i%8) + 0.5, Y: float64((i/8)%8) + 0.5, Value: 400, Sensor: -1,
		}
	}
	for _, policy := range []wal.Policy{wal.FsyncNever, wal.FsyncBatch, wal.FsyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			log, err := wal.Open(wal.Config{Dir: b.TempDir(), Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			if _, err := log.Replay(func(*wal.Record) error { return nil }); err != nil {
				b.Fatal(err)
			}
			rec := wal.Record{Type: wal.TypePush, Tuples: tuples, Watermark: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(&rec); err != nil {
					b.Fatal(err)
				}
				if policy == wal.FsyncBatch && i%16 == 15 {
					if err := log.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRecovery measures cold-start crash recovery against session age:
// a durable external session that has run 1k, 10k or 100k epochs (64
// pushed observations each, snapshots at the default cadence) is recovered
// read-only from the same directory on every iteration — restore the older
// kept snapshot, replay the log suffix, verify at the newer one. Recovery
// covers about two snapshot intervals however old the session is, so the
// rows must stay flat in age (scripts/bench_guard.sh guards age=100k as a
// ratio to age=1k).
func BenchmarkRecovery(b *testing.B) {
	const perEpoch = 64
	region := geom.NewRect(0, 0, 8, 8)
	fields := benchFields(b, region)
	config := func(dir string) server.Config {
		return server.Config{
			Region:    region,
			GridCells: 16,
			Epoch:     1,
			Budget:    budget.Config{Initial: 20, Delta: 5, Min: 5, Max: 200, ViolationThreshold: 10},
			Fleet:     sensors.FleetConfig{N: 100, Response: sensors.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1}},
			Seed:      1,
			Retention: 4096,
			Source:    server.SourceConfig{Mode: server.SourceExternal},
			Durability: server.DurabilityConfig{
				Dir: dir, Fsync: wal.FsyncNever,
			},
		}
	}
	// build runs a session for the given number of epochs and crashes it.
	build := func(b *testing.B, dir string, epochs int) {
		e, err := server.New(config(dir), fields)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Submit(query.Query{Attr: "rain", Region: region, Rate: 8}); err != nil {
			b.Fatal(err)
		}
		tuples := make([]stream.Tuple, perEpoch)
		for t := 0; t < epochs; t++ {
			for i := range tuples {
				tuples[i] = stream.Tuple{
					Attr: "rain", T: float64(t) + float64(i)/perEpoch,
					X: float64(i%8) + 0.5, Y: float64((i/8)%8) + 0.5, Value: 1, Sensor: -1,
				}
			}
			if _, err := e.PushObservations(tuples, float64(t+1)); err != nil {
				b.Fatal(err)
			}
			if err := e.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	root := b.TempDir()
	for _, age := range []struct {
		name   string
		epochs int
	}{{"1k", 1_000}, {"10k", 10_000}, {"100k", 100_000}} {
		dir := ""
		b.Run("age="+age.name, func(b *testing.B) {
			if dir == "" {
				b.StopTimer()
				dir = filepath.Join(root, age.name)
				build(b, dir, age.epochs)
				b.StartTimer()
			}
			cfg := config(dir)
			cfg.Durability.ReadOnly = true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := server.New(cfg, fields)
				if err != nil {
					b.Fatal(err)
				}
				if re.Epochs() != age.epochs {
					b.Fatalf("recovered %d epochs, want %d", re.Epochs(), age.epochs)
				}
				b.StopTimer()
				if err := re.Shutdown(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkIngestDurable is BenchmarkIngest's end-to-end push path with
// durability enabled at the default fsync=batch policy — the guardrail
// that a push costs one group commit and little else. With one producer
// that commit is one fsync, so bench_guard.sh holds its ratio to the same
// run's BenchmarkWALAppend/fsync=always within 15% of the committed
// baseline's ratio.
func BenchmarkIngestDurable(b *testing.B) {
	const n = 64
	region := geom.NewRect(0, 0, 8, 8)
	cfg := server.Config{
		Region:    region,
		GridCells: 16,
		Epoch:     1,
		Budget:    budget.Config{Initial: 20, Delta: 5, Min: 5, Max: 200, ViolationThreshold: 10},
		Fleet:     sensors.FleetConfig{N: 100, Response: sensors.ResponseModel{BaseProb: 0.7, MaxProb: 0.95, IncentiveScale: 1}},
		Seed:      1,
		Source:    server.SourceConfig{Mode: server.SourceExternal, Buffer: 1 << 16},
		Durability: server.DurabilityConfig{
			Dir: b.TempDir(), Fsync: wal.FsyncBatch, SnapshotEveryEpochs: 1 << 30,
		},
	}
	e, err := server.New(cfg, benchFields(b, region))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = e.Shutdown() }()
	tuples := make([]stream.Tuple, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := float64(i)
		for j := range tuples {
			// IDs are unique across iterations: re-pushing a pending id is
			// acked as a duplicate (at-most-once ingest), which would bench
			// the dedup short-circuit instead of the full push path.
			tuples[j] = stream.Tuple{
				ID: uint64(i)*n + uint64(j) + 1, Attr: "co2", T: epoch + float64(j)/n,
				X: float64(j%8) + 0.5, Y: float64((j/8)%8) + 0.5, Value: 400, Sensor: -1,
			}
		}
		ack, err := e.PushObservations(tuples, epoch+1)
		if err != nil {
			b.Fatal(err)
		}
		if ack.Accepted != n {
			b.Fatalf("ack = %+v", ack)
		}
		// Periodically drain the closed epochs off the clock so the queue
		// never overflows; only the push path itself is measured.
		if i%256 == 255 {
			b.StopTimer()
			if _, err := e.RunReady(256); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// benchFields builds the minimal ground-truth fields the durability
// benchmarks need.
func benchFields(b *testing.B, region geom.Rect) map[string]sensors.Field {
	b.Helper()
	rain, err := sensors.NewRainField(region, []sensors.Storm{{X0: 2, Y0: 2, VX: 0.1, VY: 0, Radius: 2}})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]sensors.Field{"rain": rain, "co2": rain}
}
