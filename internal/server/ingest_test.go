package server

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// extObs builds one externally produced observation with a client-assigned
// ID (replay-stable: gateway IDs depend on arrival order).
func extObs(id uint64, attr string, t, x, y, v float64) stream.Tuple {
	return stream.Tuple{ID: id, Attr: attr, T: t, X: x, Y: y, Value: v, Sensor: -1}
}

func newSourceEngine(t *testing.T, src SourceConfig) *Engine {
	t.Helper()
	cfg := testConfig()
	cfg.Source = src
	e, err := New(cfg, testFields(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSimulatedEngineRefusesPush(t *testing.T) {
	e := newEngine(t)
	if e.SourceMode() != SourceSimulated {
		t.Fatalf("mode = %v", e.SourceMode())
	}
	if _, err := e.PushObservations([]stream.Tuple{extObs(1, "rain", 0.5, 1, 1, 1)}, math.NaN()); !errors.Is(err, ErrNoIngest) {
		t.Fatalf("push on simulated engine = %v, want ErrNoIngest", err)
	}
	st := e.IngestStats()
	if st.Ingested != 0 || !math.IsInf(st.Watermark, -1) {
		t.Fatalf("simulated ingest stats = %+v", st)
	}
}

func TestExternalEngineGatesOnWatermark(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceExternal, Tolerance: 0.5})
	if _, err := e.SubmitCRAQL("ACQUIRE co2 FROM RECT(0,0,8,8) RATE 5"); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); !errors.Is(err, ErrEpochOpen) {
		t.Fatalf("Step with no data = %v, want ErrEpochOpen", err)
	}
	if e.Epochs() != 0 || e.Now() != 0 {
		t.Fatalf("gated step advanced time: epochs=%d now=%g", e.Epochs(), e.Now())
	}
	// Data inside the epoch but watermark (1.2 - 0.5 = 0.7) below its end.
	if _, err := e.PushObservations([]stream.Tuple{extObs(1, "co2", 0.4, 1, 1, 1), extObs(2, "co2", 1.2, 2, 2, 1)}, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); !errors.Is(err, ErrEpochOpen) {
		t.Fatalf("Step below watermark = %v, want ErrEpochOpen", err)
	}
	// Watermark assertion closes epoch [0,1); the second tuple stays
	// buffered for [1,2).
	if _, err := e.PushObservations(nil, 1); err != nil {
		t.Fatal(err)
	}
	done, err := e.RunReady(5)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 || e.Epochs() != 1 {
		t.Fatalf("RunReady advanced %d epochs (total %d), want 1", done, e.Epochs())
	}
	if wm, ok := e.Watermark(); !ok || wm != 1 {
		t.Fatalf("watermark = %g, %v", wm, ok)
	}
	// The external engine never consults the fleet.
	if e.Handler().RequestsSent() != 0 {
		t.Fatalf("external engine sent %d fleet requests", e.Handler().RequestsSent())
	}
}

// acquiredStream runs an external-mode engine over the pushes and returns
// the query's full fabricated stream.
func acquiredStream(t *testing.T, pushes [][]stream.Tuple, epochs int) []stream.Tuple {
	t.Helper()
	e := newSourceEngine(t, SourceConfig{Mode: SourceExternal, Tolerance: 0.5})
	q, err := e.SubmitCRAQL("ACQUIRE co2 FROM RECT(0,0,8,8) RATE 20")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pushes {
		ack, err := e.PushObservations(p, math.NaN())
		if err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != len(p) {
			t.Fatalf("push ack = %+v, want %d accepted", ack, len(p))
		}
	}
	if _, err := e.PushObservations(nil, float64(epochs)); err != nil {
		t.Fatal(err)
	}
	done, err := e.RunReady(epochs)
	if err != nil {
		t.Fatal(err)
	}
	if done != epochs {
		t.Fatalf("ran %d epochs, want %d", done, epochs)
	}
	out, _, _, err := e.ReadResults(q.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExternalDeterministicAcrossBatchings is acceptance criterion (a): a
// given observation sequence yields byte-identical acquired streams whether
// delivered in one batch or split across out-of-order batches within the
// watermark tolerance.
func TestExternalDeterministicAcrossBatchings(t *testing.T) {
	var all []stream.Tuple
	for i := 0; i < 240; i++ {
		tm := float64(i) / 60 // event times spread over [0, 4)
		all = append(all, extObs(uint64(i+1), "co2", tm, float64(i%8)+0.5, float64(i%7)+0.5, tm*2))
	}
	oneShot := acquiredStream(t, [][]stream.Tuple{all}, 4)
	if len(oneShot) == 0 {
		t.Fatal("no tuples acquired")
	}

	// Same observations: three interleaved slices, each internally
	// reversed, delivered before any epoch closes (all within tolerance).
	var a, b, c []stream.Tuple
	for i, tp := range all {
		switch i % 3 {
		case 0:
			a = append(a, tp)
		case 1:
			b = append(b, tp)
		default:
			c = append(c, tp)
		}
	}
	rev := func(ts []stream.Tuple) []stream.Tuple {
		out := make([]stream.Tuple, len(ts))
		for i, tp := range ts {
			out[len(ts)-1-i] = tp
		}
		return out
	}
	split := acquiredStream(t, [][]stream.Tuple{rev(b), rev(c), rev(a)}, 4)

	if !reflect.DeepEqual(oneShot, split) {
		t.Fatalf("acquired streams differ: one-shot %d tuples, split %d", len(oneShot), len(split))
	}
}

// TestIngestAccounting is acceptance criterion (b): late and overflow
// tuples are counted, never silently lost.
func TestIngestAccounting(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceExternal, Buffer: 8, Late: ingest.LateDrop})
	if _, err := e.SubmitCRAQL("ACQUIRE co2 FROM RECT(0,0,8,8) RATE 50"); err != nil {
		t.Fatal(err)
	}
	// Overflow: 12 pushed into a buffer of 8.
	var batch []stream.Tuple
	for i := 0; i < 12; i++ {
		batch = append(batch, extObs(uint64(i+1), "co2", float64(i)/12, 1, 1, 1))
	}
	ack, err := e.PushObservations(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 8 || ack.Dropped != 4 {
		t.Fatalf("overflow ack = %+v", ack)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	// Late after the epoch closed.
	ack, err = e.PushObservations([]stream.Tuple{extObs(99, "co2", 0.5, 1, 1, 1)}, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if ack.LateDropped != 1 || ack.Accepted != 0 {
		t.Fatalf("late ack = %+v", ack)
	}
	st := e.IngestStats()
	if st.Ingested != 8 || st.Dropped != 4 || st.LateDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Every pushed tuple is accounted exactly once.
	if total := st.Ingested + st.Dropped + st.LateDropped + st.Rejected; total != 13 {
		t.Fatalf("accounted %d of 13 pushed tuples", total)
	}
}

// TestMixedIdleMatchesSimulated pins the compatibility contract: a mixed
// session nobody pushes into fabricates byte-identical streams to a
// simulated session of the same seed.
func TestMixedIdleMatchesSimulated(t *testing.T) {
	run := func(src SourceConfig) []stream.Tuple {
		cfg := testConfig()
		cfg.Source = src
		e, err := New(cfg, testFields(t))
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,8,8) RATE 10")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(6); err != nil {
			t.Fatal(err)
		}
		out, _, _, err := e.ReadResults(q.ID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sim := run(SourceConfig{})
	mixed := run(SourceConfig{Mode: SourceMixed})
	if len(sim) == 0 {
		t.Fatal("no tuples fabricated")
	}
	if !reflect.DeepEqual(sim, mixed) {
		t.Fatalf("idle mixed diverged from simulated: %d vs %d tuples", len(sim), len(mixed))
	}
}

// TestMixedMergesExternalAttr drives the acceptance scenario end to end in
// process: a mixed engine serves a fleet-fed query and an externally fed
// attribute at once.
func TestMixedMergesExternalAttr(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceMixed, Tolerance: 0.25})
	rain, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,8,8) RATE 10")
	if err != nil {
		t.Fatal(err)
	}
	co2, err := e.SubmitCRAQL("ACQUIRE co2 FROM RECT(0,0,8,8) RATE 50")
	if err != nil {
		t.Fatal(err)
	}
	var batch []stream.Tuple
	for i := 0; i < 120; i++ {
		batch = append(batch, extObs(uint64(i+1), "co2", float64(i)/40, float64(i%8)+0.1, float64(i%8)+0.1, 1))
	}
	if _, err := e.PushObservations(batch, 3); err != nil {
		t.Fatal(err)
	}
	done, err := e.RunReady(3)
	if err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("ran %d epochs, want 3", done)
	}
	co2Out, _, _, err := e.ReadResults(co2.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(co2Out) == 0 {
		t.Fatal("no externally fed tuples acquired")
	}
	for _, tp := range co2Out {
		if tp.Attr != "co2" {
			t.Fatalf("foreign tuple in co2 stream: %v", tp)
		}
	}
	rainOut, _, _, err := e.ReadResults(rain.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rainOut) == 0 {
		t.Fatal("fleet-fed query starved in mixed mode")
	}
	// The fleet kept acquiring (mixed mode runs the handler).
	if e.Handler().RequestsSent() == 0 {
		t.Fatal("mixed engine sent no fleet requests")
	}
}

// TestMixedGatesAfterFirstPush pins how a mixed engine composes its epochs:
// while nobody has pushed it steps like a simulated engine, the first push
// makes epochs wait for the watermark to reach their end, and within an
// attribute the pushed tuples follow the fleet's.
func TestMixedGatesAfterFirstPush(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceMixed})
	if _, err := e.SubmitCRAQL("ACQUIRE rain FROM RECT(0,0,8,8) RATE 10"); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("idle mixed step = %v", err)
	}
	if _, err := e.PushObservations([]stream.Tuple{extObs(100, "rain", 1.2, 2, 2, 1)}, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); !errors.Is(err, ErrEpochOpen) {
		t.Fatalf("step with the watermark at 1.2 = %v, want ErrEpochOpen", err)
	}
	if _, err := e.PushObservations(nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil || e.Epochs() != 2 {
		t.Fatalf("step with the watermark at 2 = %v (epochs %d)", err, e.Epochs())
	}

	pushed := []stream.Tuple{extObs(200, "rain", 2.5, 1, 1, 1), extObs(201, "co2", 2.6, 3, 3, 1), extObs(202, "rain", 2.1, 2, 2, 1)}
	if _, err := e.PushObservations(pushed, 3); err != nil {
		t.Fatal(err)
	}
	batches, err := e.acquire(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rain := batches["rain"].Tuples
	n := len(rain)
	if n < 3 || rain[n-2].ID != 202 || rain[n-1].ID != 200 {
		t.Fatalf("rain batch ends %v, want the fleet's tuples then pushes 202 and 200", rain[max(n-2, 0):])
	}
	for _, tp := range rain[:n-2] {
		if tp.Sensor < 0 {
			t.Fatalf("pushed tuple %v precedes the fleet's", tp)
		}
	}
	if co2 := batches["co2"].Tuples; len(co2) != 1 || co2[0].ID != 201 {
		t.Fatalf("co2 batch = %v, want the one pushed tuple", co2)
	}
}

// TestGatedSimulatedClockParksAndResumes exercises the lifecycle path: a
// started engine with a simulated clock and an external source parks on the
// open epoch and resumes when the producer advances the watermark.
func TestGatedSimulatedClockParksAndResumes(t *testing.T) {
	e := newSourceEngine(t, SourceConfig{Mode: SourceExternal})
	if _, err := e.SubmitCRAQL("ACQUIRE co2 FROM RECT(0,0,8,8) RATE 5"); err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Clock
	cfg.Simulated = true
	e.cfg.Clock = cfg
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Shutdown() }()
	time.Sleep(20 * time.Millisecond)
	if got := e.Epochs(); got != 0 {
		t.Fatalf("parked clock advanced %d epochs", got)
	}
	if _, err := e.PushObservations([]stream.Tuple{extObs(1, "co2", 0.5, 1, 1, 1)}, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Epochs() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("clock did not resume: %d epochs", e.Epochs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !e.Running() {
		t.Fatalf("clock halted: %v", e.ClockErr())
	}
}
