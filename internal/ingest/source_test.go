package ingest

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/stream"
)

func TestQueueSourceGroupsByAttr(t *testing.T) {
	region := geom.NewRect(0, 0, 8, 8)
	q := NewQueue(Config{Region: region})
	src, err := NewQueueSource(q, region)
	if err != nil {
		t.Fatal(err)
	}
	push := []stream.Tuple{
		{ID: 4, Attr: "temp", T: 0.4, X: 1, Y: 1},
		{ID: 1, Attr: "rain", T: 0.1, X: 1, Y: 1},
		{ID: 2, Attr: "temp", T: 0.2, X: 1, Y: 1},
		{ID: 3, Attr: "rain", T: 0.3, X: 1, Y: 1},
	}
	if _, err := q.Push(push, 1); err != nil {
		t.Fatal(err)
	}
	out, err := src.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("attrs = %d, want 2", len(out))
	}
	rain, temp := out["rain"], out["temp"]
	if rain.Attr != "rain" || temp.Attr != "temp" {
		t.Fatalf("batch attrs: %q %q", rain.Attr, temp.Attr)
	}
	wantWindow := geom.NewWindow(0, 1, region)
	if rain.Window != wantWindow || temp.Window != wantWindow {
		t.Fatalf("windows: %v %v, want %v", rain.Window, temp.Window, wantWindow)
	}
	if ids(rain.Tuples) != [2]uint64{1, 3} || ids(temp.Tuples) != [2]uint64{2, 4} {
		t.Fatalf("groups: rain=%v temp=%v", rain.Tuples, temp.Tuples)
	}
	// Empty epoch: no batches at all.
	out, err = src.Acquire(1, 2)
	if err != nil || out != nil {
		t.Fatalf("empty epoch = %v, %v", out, err)
	}
}

func ids(ts []stream.Tuple) [2]uint64 {
	var out [2]uint64
	for i, tp := range ts {
		if i < 2 {
			out[i] = tp.ID
		}
	}
	return out
}
