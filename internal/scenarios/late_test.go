package scenarios

import (
	"math"
	"testing"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestScenarioLateToleranceBoundary pins the event-time contract exactly at
// its edges for both late policies: a tuple below the closed boundary is
// late, a tuple exactly AT the boundary is not (epochs are half-open
// [t0,t1), so T == closedTo belongs to the open epoch), and a
// data-derived watermark sits exactly maxT − tolerance. Off-by-one
// regressions here silently reorder epochs, so every count is exact.
func TestScenarioLateToleranceBoundary(t *testing.T) {
	for _, policy := range []string{"drop", "next"} {
		policy := policy
		t.Run("late="+policy, func(t *testing.T) {
			template := worldConfig()
			template.Source = server.SourceConfig{Mode: server.SourceExternal}
			cl := startCluster(t, template, server.ManagerConfig{})

			spec := mkSpec(t, map[string]interface{}{
				"name": "edge", "source": "external", "tolerance": 0.5, "latePolicy": policy,
			})
			do(t, cl.c, "POST", cl.url("/v1/sessions"), spec, 201, nil)
			ingestURL := cl.url("/v1/sessions/edge/ingest")

			tp := func(tt float64) stream.Tuple {
				return stream.Tuple{Attr: "rain", T: tt, X: 1, Y: 1, Value: 1, Sensor: -1}
			}

			// Data-derived watermark at the exact tolerance edge: maxT = 1.5
			// with tolerance 0.5 puts the watermark at exactly 1.0, which is
			// just enough to close epoch [0,1) — equality closes.
			a := pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: math.NaN(),
				Tuples: []stream.Tuple{tp(0.25), tp(0.75), tp(1.5)}})
			if a.Accepted != 3 || a.Watermark == nil || *a.Watermark != 1.0 {
				t.Fatalf("seed push: %+v (want accepted=3 watermark=1)", a)
			}
			var step struct {
				Stepped int  `json:"stepped"`
				Waiting bool `json:"waiting"`
			}
			do(t, cl.c, "POST", cl.url("/v1/sessions/edge/step?n=2"), "", 200, &step)
			if step.Stepped != 1 || !step.Waiting {
				t.Fatalf("watermark exactly at epoch end must close exactly one epoch: %+v", step)
			}

			// Epoch [0,1) is closed; the boundary is now 1.0. One tuple a
			// hair below (late), one exactly at it (on time: [t0,t1) is
			// half-open), one a hair above (on time).
			below, at, above := math.Nextafter(1.0, 0), 1.0, math.Nextafter(1.0, 2)
			a = pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: math.NaN(),
				Tuples: []stream.Tuple{tp(below), tp(at), tp(above)}})
			switch policy {
			case "drop":
				if a.Accepted != 2 || a.LateDropped != 1 || a.Late != 0 {
					t.Fatalf("boundary push under drop: %+v (want accepted=2 lateDropped=1)", a)
				}
			case "next":
				if a.Accepted != 3 || a.Late != 1 || a.LateDropped != 0 {
					t.Fatalf("boundary push under next: %+v (want accepted=3 late=1)", a)
				}
			}

			// Drain everything and check conservation end to end: what was
			// accepted is exactly what is no longer pending once the final
			// watermark closes all epochs.
			pushJSON(t, cl.c, ingestURL, wire.Batch{Attr: "rain", Watermark: 3})
			do(t, cl.c, "POST", cl.url("/v1/sessions/edge/step?n=10"), "", 200, nil)
			st := getStatus(t, cl.c, cl.url("/v1/sessions/edge/status"))
			wantIngested := map[string]int{"drop": 5, "next": 6}[policy]
			if got := int(st.Ingested); got != wantIngested {
				t.Errorf("ingested = %d, want %d", got, wantIngested)
			}
			if got := st.IngestPending; got != 0 {
				t.Errorf("pending = %d after full drain", got)
			}
			if policy == "next" {
				if got := int(st.IngestLate); got != 1 {
					t.Errorf("ingestLate = %d, want 1", got)
				}
			} else {
				if got := int(st.LateDropped); got != 1 {
					t.Errorf("lateDropped = %d, want 1", got)
				}
			}
			if epochs := st.Epochs; epochs != 3 {
				t.Errorf("epochs = %d, want 3 (watermark 3)", epochs)
			}
		})
	}
}

// TestScenarioOutOfOrderWithinTolerance: arrivals may interleave arbitrarily
// within the tolerance window without any being flagged late — the entire
// point of the slack — and the drained epoch is the same regardless of
// arrival order (assembly sorts on (T, ID), not arrival).
func TestScenarioOutOfOrderWithinTolerance(t *testing.T) {
	run := func(t *testing.T, order []int) string {
		template := worldConfig()
		template.Source = server.SourceConfig{Mode: server.SourceExternal}
		cl := startCluster(t, template, server.ManagerConfig{})
		do(t, cl.c, "POST", cl.url("/v1/sessions"),
			mkSpec(t, map[string]interface{}{"name": "ooo", "source": "external", "tolerance": 0.5}), 201, nil)
		var q struct {
			ID string `json:"id"`
		}
		do(t, cl.c, "POST", cl.url("/v1/sessions/ooo/queries"),
			"ACQUIRE rain FROM RECT(0,0,8,8) RATE 3", 201, &q)

		// Four observations with fixed IDs, pushed one per batch in the
		// given arrival order; none is ever late (no epoch closed yet).
		times := []float64{0.9, 0.2, 0.7, 0.4}
		for _, i := range order {
			a := pushJSON(t, cl.c, cl.url("/v1/sessions/ooo/ingest"), wire.Batch{Attr: "rain", Watermark: math.NaN(),
				Tuples: []stream.Tuple{{ID: uint64(1000 + i), Attr: "rain", T: times[i], X: 2, Y: 2, Value: float64(i), Sensor: -1}}})
			if a.Accepted != 1 || a.Late != 0 || a.LateDropped != 0 {
				t.Fatalf("in-tolerance arrival %d flagged late: %+v", i, a)
			}
		}
		pushJSON(t, cl.c, cl.url("/v1/sessions/ooo/ingest"), wire.Batch{Attr: "rain", Watermark: 1})
		do(t, cl.c, "POST", cl.url("/v1/sessions/ooo/step?n=1"), "", 200, nil)
		return string(getBody(t, cl.c, cl.url("/v1/sessions/ooo/results/"+q.ID+"?limit=100")))
	}

	inOrder := run(t, []int{1, 3, 2, 0})  // ascending T
	shuffled := run(t, []int{0, 2, 1, 3}) // descending-ish T
	if inOrder != shuffled {
		t.Fatalf("arrival order leaked into the epoch:\n asc: %s\ndesc: %s", inOrder, shuffled)
	}
	if inOrder == "" {
		t.Fatal("empty results")
	}
}
