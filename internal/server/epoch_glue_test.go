package server

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stream"
)

// errSink fails every batch with its own error.
type errSink struct{ err error }

// Process implements stream.Processor.
func (s errSink) Process(stream.Batch) error { return s.err }

// TestStepReportsFirstAttrInSortedOrder pins the attribute order of an
// epoch's ingest: with two attributes whose sinks both fail — one fed an
// observation batch, one only the empty batch — every epoch reports the
// alphabetically first attribute's failure, whichever of the two carries
// the data. Ranging the batch map reported either, run to run.
func TestStepReportsFirstAttrInSortedOrder(t *testing.T) {
	for _, fed := range []string{"rain", "temp"} {
		for i := 0; i < 8; i++ { // map order is random per range: repeat
			e := newSourceEngine(t, SourceConfig{Mode: SourceExternal})
			errRain, errTemp := errors.New("rain sink down"), errors.New("temp sink down")
			region := geom.NewRect(0, 0, 8, 8)
			if _, err := e.SubmitWithSink(query.Query{Attr: "temp", Region: region, Rate: 5}, errSink{errTemp}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.SubmitWithSink(query.Query{Attr: "rain", Region: region, Rate: 5}, errSink{errRain}); err != nil {
				t.Fatal(err)
			}
			obs := []stream.Tuple{extObs(1, fed, 0.25, 1, 1, 1), extObs(2, fed, 0.5, 5, 5, 1)}
			if _, err := e.PushObservations(obs, 1); err != nil {
				t.Fatal(err)
			}
			err := e.Step()
			if !errors.Is(err, errRain) || errors.Is(err, errTemp) {
				t.Fatalf("fed %s: Step = %v, want the rain sink's failure (first in sorted attribute order)", fed, err)
			}
		}
	}
}

// TestStepGlueSteadyStateAllocs gates the epoch glue around Acquire — the
// readiness check, the sorted attribute walk, the epoch bookkeeping — at
// zero allocations per push + Step once warm. The session has no resident
// query, so no pipeline runs: what is measured is the glue and the
// queue/assembly path under it, not the operators.
func TestStepGlueSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Source = SourceConfig{Mode: SourceExternal}
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Tuple, 512)
	epoch := 0.0
	run := func() {
		for i := range batch {
			attr := "rain"
			if i%2 == 1 {
				attr = "temp"
			}
			batch[i] = extObs(uint64(i+1), attr, epoch+float64((i*37)%512)/512, 1, 1, 1)
		}
		if _, err := e.PushObservations(batch, epoch+1); err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		epoch++
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state push + Step allocates %.1f times per epoch, want 0", allocs)
	}
	if e.Epochs() < 50 || math.IsInf(e.IngestStats().Watermark, -1) {
		t.Fatalf("epochs = %d, stats = %+v", e.Epochs(), e.IngestStats())
	}
}
