package export

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/geom"
	"repro/internal/stream"
)

// decodeLines decodes the ndjson records a JSONLinesSink wrote to r.
func decodeLines(t *testing.T, r io.Reader) []stream.Tuple {
	t.Helper()
	var out []stream.Tuple
	for dec := json.NewDecoder(r); dec.More(); {
		var rec client.Tuple
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, stream.Tuple{ID: rec.ID, Attr: rec.Attr, T: rec.T, X: rec.X, Y: rec.Y, Value: rec.Value, Sensor: rec.Sensor})
	}
	return out
}

func sampleBatch() stream.Batch {
	return stream.Batch{
		Attr:   "temp",
		Window: geom.Window{T0: 0, T1: 1, Rect: geom.NewRect(0, 0, 4, 4)},
		Tuples: []stream.Tuple{
			{ID: 1, Attr: "temp", T: 0.25, X: 1.5, Y: 2.5, Value: 21.5, Sensor: 7},
			{ID: 2, Attr: "temp", T: 0.75, X: 3.0, Y: 0.5, Value: 19.25, Sensor: 3},
		},
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	if _, err := NewJSONLinesSink(nil); err == nil {
		t.Fatal("nil writer accepted")
	}
	var buf bytes.Buffer
	s, err := NewJSONLinesSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := sampleBatch()
	if err := s.Process(b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; lines != 2 {
		t.Fatalf("ndjson lines = %d", lines)
	}
	back := decodeLines(t, &buf)
	if len(back) != 2 {
		t.Fatalf("decoded %d tuples", len(back))
	}
	for i, tp := range back {
		if tp != b.Tuples[i] {
			t.Fatalf("round trip changed tuple %d: %+v vs %+v", i, tp, b.Tuples[i])
		}
	}
}

func TestSinksAsQueryTerminals(t *testing.T) {
	// Sinks satisfy stream.Processor and can terminate operator chains.
	var _ stream.Processor = (*JSONLinesSink)(nil)
}

// TestAppendTupleJSONMatchesEncodingJSON holds the append encoder to
// encoding/json byte for byte: the float forms where the two notations
// switch, the values that need all 17 digits, subnormals, signed zero, and
// attrs that need every kind of escape — then the same over random bit
// patterns.
func TestAppendTupleJSONMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 21.5, 1e20, 1e21, -1e21, 1.5e21, 1e-6, 1e-7, -1e-7, 9.999999e-7,
		123456789012345678, 0.30000000000000004, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e100, 1e-100, 4.35, 100, 1e6, 123456.789,
	}
	attrs := []string{
		"temp", "", `quo"te`, `back\slash`, "new\nline\ttab\rcr\bbs\fff", "\x00\x1f", "<html>&amp;", "caf\u00e9", "\u2028\u2029",
		"bad\xffutf8", "\U0001F327", "a/b",
	}
	check := func(tp stream.Tuple) {
		t.Helper()
		want, err := json.Marshal(client.Tuple{ID: tp.ID, Attr: tp.Attr, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value, Sensor: tp.Sensor})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendTupleJSON(nil, tp)
		if err != nil {
			t.Fatalf("%+v: %v", tp, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tuple %+v:\n got %s\nwant %s", tp, got, want)
		}
	}
	for i, f := range floats {
		for _, attr := range attrs {
			check(stream.Tuple{ID: uint64(i), Attr: attr, T: f, X: -f, Y: f / 3, Value: f / 7, Sensor: i - 3})
		}
	}
	check(stream.Tuple{ID: math.MaxUint64, Attr: "x", Sensor: math.MinInt64})
	rnd := rand.New(rand.NewSource(1))
	finite := func() float64 {
		for {
			if f := math.Float64frombits(rnd.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 20000; i++ {
		raw := make([]byte, rnd.Intn(12))
		rnd.Read(raw)
		check(stream.Tuple{
			ID: rnd.Uint64(), Attr: string(raw), T: finite(), X: rnd.NormFloat64(), Y: float64(rnd.Intn(1000)) / 8,
			Value: finite(), Sensor: rnd.Int(),
		})
	}
}

// TestJSONLinesNonFinite: a NaN or ±Inf field has no JSON form; the sink
// reports it, as encoding/json did, and still writes the records before it.
func TestJSONLinesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		s, err := NewJSONLinesSink(&buf)
		if err != nil {
			t.Fatal(err)
		}
		b := sampleBatch()
		b.Tuples = append(b.Tuples, stream.Tuple{ID: 3, Attr: "temp", Value: bad}, stream.Tuple{ID: 4, Attr: "temp"})
		if err := s.Process(b); err == nil {
			t.Fatalf("value %v accepted", bad)
		}
		if back := decodeLines(t, &buf); len(back) != 2 {
			t.Fatalf("value %v: %d records written, want the 2 before it", bad, len(back))
		}
		if dst, err := AppendTupleJSON([]byte("keep"), b.Tuples[2]); err == nil || string(dst) != "keep" {
			t.Fatalf("AppendTupleJSON(%v) = %q, %v", bad, dst, err)
		}
	}
}

// TestJSONLinesLargeBatch crosses the sink's mid-batch flush size.
func TestJSONLinesLargeBatch(t *testing.T) {
	var buf bytes.Buffer
	s, _ := NewJSONLinesSink(&buf)
	b := sampleBatch()
	for len(b.Tuples) < 2000 {
		b.Tuples = append(b.Tuples, stream.Tuple{ID: uint64(len(b.Tuples)) + 1, Attr: "temp", T: 0.5, X: 1.25, Y: 2.75, Value: float64(len(b.Tuples)), Sensor: 9})
	}
	if err := s.Process(b); err != nil {
		t.Fatal(err)
	}
	back := decodeLines(t, &buf)
	if len(back) != len(b.Tuples) {
		t.Fatalf("read back %d of %d tuples", len(back), len(b.Tuples))
	}
	for i := range back {
		if back[i] != b.Tuples[i] {
			t.Fatalf("tuple %d changed: %+v vs %+v", i, back[i], b.Tuples[i])
		}
	}
}
