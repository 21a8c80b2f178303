package wire

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stream"
)

// refBatch/refObs mirror the gateway's historical encoding/json wire
// structs; the hand-rolled decoder must agree with them on every valid
// body.
type refBatch struct {
	Attr         string   `json:"attr"`
	Watermark    *float64 `json:"watermark"`
	Observations []refObs `json:"observations"`
}

type refObs struct {
	ID     uint64   `json:"id"`
	Attr   string   `json:"attr"`
	T      float64  `json:"t"`
	X      float64  `json:"x"`
	Y      float64  `json:"y"`
	Value  float64  `json:"value"`
	Sensor *int     `json:"sensor"`
	Extra  *refMisc `json:"extra,omitempty"`
}

type refMisc struct {
	Tags []string `json:"tags"`
	Deep any      `json:"deep"`
}

func refDecode(t *testing.T, body []byte) Batch {
	t.Helper()
	var rb refBatch
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	out := Batch{Attr: rb.Attr, Watermark: math.NaN()}
	if rb.Watermark != nil {
		out.Watermark = *rb.Watermark
	}
	for _, o := range rb.Observations {
		attr := o.Attr
		if attr == "" {
			attr = rb.Attr
		}
		sensor := -1
		if o.Sensor != nil {
			sensor = *o.Sensor
		}
		out.Tuples = append(out.Tuples, stream.Tuple{
			ID: o.ID, Attr: attr, T: o.T, X: o.X, Y: o.Y, Value: o.Value, Sensor: sensor,
		})
	}
	return out
}

func batchesEqual(a, b Batch) bool {
	if a.Attr != b.Attr {
		return false
	}
	if math.Float64bits(a.Watermark) != math.Float64bits(b.Watermark) {
		return false
	}
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		x, y := a.Tuples[i], b.Tuples[i]
		if x.ID != y.ID || x.Attr != y.Attr || x.Sensor != y.Sensor ||
			math.Float64bits(x.T) != math.Float64bits(y.T) ||
			math.Float64bits(x.X) != math.Float64bits(y.X) ||
			math.Float64bits(x.Y) != math.Float64bits(y.Y) ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
	}
	return true
}

func TestDecodeJSONMatchesEncodingJSON(t *testing.T) {
	bodies := []string{
		`{}`,
		`{"attr":"temperature","observations":[]}`,
		`{"attr":"temperature","observations":null}`,
		`{"watermark":null,"observations":[{"id":1,"t":1.5,"value":20.25}]}`,
		`{"attr":"pm10","watermark":41.75,"observations":[
			{"id":7,"t":40,"x":1.25,"y":-2.5,"value":17,"sensor":3},
			{"id":8,"attr":"o3","t":40.5,"x":0,"y":0,"value":-0.125},
			{"id":9,"t":41,"value":1e3,"sensor":null}
		]}`,
		`{"observations":[{"id":18446744073709551615,"t":-1.25,"value":0}]}`,
		`{"attr":"τ_θ°","observations":[{"id":1,"attr":"日本語","t":1,"value":2}]}`,
		`{"attr":"a\"b\\c\/d\b\f\n\r\t","observations":[{"id":1,"t":1,"value":2}]}`,
		`{"attr":"Aé世😀x","observations":[]}`,
		`{"attr":"😀","observations":[{"id":1,"attr":"é","t":1,"value":1}]}`,
		`  {  "attr" : "s" , "observations" : [ { "id" : 2 , "t" : 3 , "value" : 4 } ] }  `,
		`{"unknown":{"nested":[1,2,{"x":null}]},"observations":[{"id":1,"t":1,"value":1,"extra":{"tags":["a","b"],"deep":{"k":[true,false,null,1.5,"s"]}}}],"attr":"late-attr"}`,
		`{"observations":[{"id":1,"t":0.1,"x":0.2,"y":0.3,"value":0.30000000000000004}]}`,
		`{"observations":[{"id":1,"t":1e-300,"x":1.7976931348623157e308,"y":5e-324,"value":2.2250738585072014e-308}]}`,
		`{"observations":[{"id":1,"t":3.141592653589793238462643383279,"x":-123456789012345678901234567890.5,"y":9007199254740993,"value":1E+22}]}`,
		`{"observations":[{"id":1,"t":-0,"x":0e0,"y":1e22,"value":1e-22}]}`,
		`{"watermark":123456.789012345,"observations":[{"id":1,"t":1,"value":1,"sensor":-42}]}`,
		`{"observations":[{"id":1,"sensor":0},{"id":2,"sensor":-0},{"id":3,"sensor":9223372036854775807},{"id":4,"sensor":-9223372036854775808}]}`,
		`{"observations":[{"\u0069d":5,"\u0074":1.5,"valu\u0065":2,"s\u0065nsor":3,"at\u0074r":"r"},{ "id" :6, "t"	:2 ,"idx":1,"i":2,"value2":3,"sensors":[4],"":5}]}`,
		`{"observations":[{"id":1,"t":1,"value":1}],"observations":[{"id":2,"t":2,"value":2}]}`,
		`{"observations":[{"id":1,"t":1,"value":1}],"observations":null}`,
		`{"attr":"rain","observations":[{"t":1e-07,"x":0.5,"y":1.25,"value":20.5},{"t":7.042,"x":0.3,"y":0,"value":-2.675}]}`,
	}
	d := BorrowDecoder()
	defer d.Release()
	for _, body := range bodies {
		want := refDecode(t, []byte(body))
		got, err := d.DecodeJSON([]byte(body))
		if err != nil {
			t.Fatalf("DecodeJSON(%s): %v", body, err)
		}
		if !batchesEqual(got, want) {
			t.Fatalf("DecodeJSON(%s):\n got %+v\nwant %+v", body, got, want)
		}
	}
}

func TestDecodeJSONFloatBitsMatchStrconv(t *testing.T) {
	nums := []string{
		"0", "-0", "1", "-1", "20.25", "0.1", "0.2", "0.30000000000000004",
		"1e22", "1e-22", "1e23", "1e-23", "1.7976931348623157e308", "5e-324",
		"9007199254740993", "4503599627370495", "4503599627370497",
		"3.141592653589793238462643383279", "2.5e-1", "123456789.123456789",
		"1E5", "1e+5", "1e-5", "-987654321.0000001", "1e-310",
	}
	d := BorrowDecoder()
	defer d.Release()
	for _, n := range nums {
		var want float64
		if err := json.Unmarshal([]byte(n), &want); err != nil {
			t.Fatalf("reference %q: %v", n, err)
		}
		body := fmt.Sprintf(`{"observations":[{"id":1,"t":%s,"value":1}]}`, n)
		got, err := d.DecodeJSON([]byte(body))
		if err != nil {
			t.Fatalf("DecodeJSON(%q): %v", n, err)
		}
		if math.Float64bits(got.Tuples[0].T) != math.Float64bits(want) {
			t.Fatalf("number %q: got %x want %x", n, math.Float64bits(got.Tuples[0].T), math.Float64bits(want))
		}
	}
}

func TestDecodeJSONRejectsMalformed(t *testing.T) {
	bodies := []string{
		``, `null`, `[]`, `42`, `"x"`, `{`, `{"attr"}`, `{"attr":}`,
		`{"attr":"a"`, `{"attr":"a",}`, `{"observations":[{]}`,
		`{"observations":[{"id":1}`, `{"observations":[{"id":-1,"t":1,"value":1}]}`,
		`{"observations":[{"id":1.5,"t":1,"value":1}]}`,
		`{"observations":[{"id":1e2,"t":1,"value":1}]}`,
		`{"observations":[{"id":18446744073709551616,"t":1,"value":1}]}`,
		`{"observations":[{"id":1,"t":"hot","value":1}]}`,
		`{"observations":[{"id":1,"t":1,"value":1}]}{"extra":1}`,
		`{"attr":"a"} trailing`,
		`{"watermark":nul}`, `{"watermark":+1}`, `{"watermark":.5}`,
		`{"watermark":1.}`, `{"watermark":1e}`,
		`{"observations":[{"id":1,"sensor":1.9}]}`, `{"observations":[{"id":1,"sensor":-0.5}]}`,
		`{"observations":[{"id":1,"sensor":1.0}]}`, `{"observations":[{"id":1,"sensor":1e2}]}`,
		`{"observations":[{"id":1,"sensor":1e300}]}`, `{"observations":[{"id":1,"sensor":-1e300}]}`,
		`{"observations":[{"id":1,"sensor":9223372036854775808}]}`, `{"observations":[{"id":1,"sensor":1e19}]}`,
		`{"observations":[{"id":1,"sensor":-9223372036854775809}]}`, `{"observations":[{"id":1,"sensor":-}]}`,
		`{"observations":[{"id":1,"sensor":"3"}]}`, `{"observations":[{"id":1,"sensor":nul}]}`,
		`{"observations":[{"id"`, `{"observations":[{"i`, `{"observations":[{"id":1,"value`,
		`{"attr":"bad ` + "\x01" + ` control"}`,
		`{"attr":"unterminated`,
		`{"attr":"\q"}`, `{"attr":"\u12"}`, `{"attr":"\uZZZZ"}`,
		`{"deep":` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `}`,
	}
	d := BorrowDecoder()
	defer d.Release()
	for _, body := range bodies {
		if _, err := d.DecodeJSON([]byte(body)); err == nil {
			t.Fatalf("DecodeJSON(%q): expected error", body)
		}
	}
	// A refused sensor is a syntax error at the byte that refuses it.
	var se *SyntaxError
	_, err := d.DecodeJSON([]byte(`{"observations":[{"id":1,"sensor":1.9}]}`))
	if !errors.As(err, &se) || se.Off != 35 {
		t.Fatalf("fractional sensor: got %v, want a SyntaxError at offset 35", err)
	}
}

func TestDecodeJSONInvalidUTF8Attr(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()
	body := []byte(`{"attr":"ab` + "\xff\xfe" + `","observations":[]}`)
	if _, err := d.DecodeJSON(body); !errors.Is(err, ErrInvalidAttr) {
		t.Fatalf("invalid UTF-8 attr: got %v, want ErrInvalidAttr", err)
	}
	body = []byte(`{"observations":[{"id":1,"attr":"` + "\x80" + `","t":1,"value":1}]}`)
	if _, err := d.DecodeJSON(body); !errors.Is(err, ErrInvalidAttr) {
		t.Fatalf("invalid UTF-8 tuple attr: got %v, want ErrInvalidAttr", err)
	}
}

func TestDecodeJSONFrameTooLarge(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()
	big := make([]byte, MaxFrameBytes+1)
	if _, err := d.DecodeJSON(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body: got %v, want ErrFrameTooLarge", err)
	}
}

func testBatch(n int) Batch {
	b := Batch{Attr: "temperature", Watermark: 99.5}
	for i := 0; i < n; i++ {
		tp := stream.Tuple{
			ID:     uint64(i + 1),
			Attr:   "temperature",
			T:      float64(i) * 0.5,
			X:      float64(i%10) * 1.25,
			Y:      float64(i%7) * -2.5,
			Value:  20 + float64(i)*0.125,
			Sensor: i % 5,
		}
		if i%3 == 0 {
			tp.Attr = "humidity"
		}
		if i%11 == 0 {
			tp.Attr = ""
			tp.Sensor = -1
		}
		b.Tuples = append(b.Tuples, tp)
	}
	return b
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64, 1000} {
		in := testBatch(n)
		frame, err := AppendFrame(nil, in)
		if err != nil {
			t.Fatalf("AppendFrame(n=%d): %v", n, err)
		}
		d := BorrowDecoder()
		got, err := d.DecodeBinary(frame)
		if err != nil {
			t.Fatalf("DecodeBinary(n=%d): %v", n, err)
		}
		// Encoding normalizes "" attrs to the batch default, matching the
		// JSON path's inheritance semantics.
		want := in
		want.Tuples = append([]stream.Tuple(nil), in.Tuples...)
		for i := range want.Tuples {
			if want.Tuples[i].Attr == "" {
				want.Tuples[i].Attr = want.Attr
			}
		}
		if !batchesEqual(got, want) {
			t.Fatalf("binary round trip n=%d mismatch", n)
		}
		d.Release()
	}
}

func TestBinaryRoundTripNaNWatermarkAndNoDefault(t *testing.T) {
	in := Batch{Watermark: math.NaN(), Tuples: []stream.Tuple{
		{ID: 5, Attr: "o3", T: 1, Value: 2, Sensor: -1},
		{ID: 6, T: 2, Value: 3, Sensor: 7}, // no attr, no default: stays ""
	}}
	frame, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	d := BorrowDecoder()
	defer d.Release()
	got, err := d.DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(got, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestBinaryManyAttrs(t *testing.T) {
	// More distinct attrs than the encoder's inline table.
	in := Batch{}
	for i := 0; i < 40; i++ {
		in.Tuples = append(in.Tuples, stream.Tuple{
			ID: uint64(i + 1), Attr: fmt.Sprintf("attr-%02d", i%20), T: float64(i), Value: 1, Sensor: -1,
		})
	}
	frame, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	d := BorrowDecoder()
	defer d.Release()
	got, err := d.DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(got, in) {
		t.Fatal("many-attr round trip mismatch")
	}
}

func TestBinaryTruncatedEveryPrefix(t *testing.T) {
	frame, err := AppendFrame(nil, testBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	d := BorrowDecoder()
	defer d.Release()
	for i := 0; i < len(frame); i++ {
		if _, err := d.DecodeBinary(frame[:i]); err == nil {
			t.Fatalf("prefix %d/%d: expected error", i, len(frame))
		}
	}
}

func TestBinaryCRCMismatch(t *testing.T) {
	frame, err := AppendFrame(nil, testBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0x40
	d := BorrowDecoder()
	defer d.Release()
	if _, err := d.DecodeBinary(frame); !errors.Is(err, ErrCRCMismatch) {
		t.Fatalf("corrupt payload: got %v, want ErrCRCMismatch", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()
	if _, err := d.DecodeBinary([]byte(`{"attr":"x"}`)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("json body as binary: got %v, want ErrBadMagic", err)
	}
}

func TestBinaryHostileDeclaredSizes(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()

	// Declared payload length far beyond the cap: rejected by arithmetic.
	hdr := append([]byte{}, Magic[:]...)
	hdr = appendU32(hdr, uint32(MaxFrameBytes+1))
	hdr = appendU32(hdr, 0)
	if _, err := d.DecodeBinary(hdr); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized declared payload: got %v, want ErrFrameTooLarge", err)
	}

	// Declared tuple count far beyond the bytes present: rejected before
	// any tuple storage is sized from it.
	payload := appendF64(nil, math.NaN())
	payload = appendU16(payload, 0) // empty attr table
	payload = appendU16(payload, 0) // no default
	payload = appendU32(payload, 1<<30)
	frame := frameFor(payload)
	if _, err := d.DecodeBinary(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile tuple count: got %v, want ErrTruncated", err)
	}
	// A handful of error-value allocations is fine; sizing anything from
	// the hostile count (1<<30 tuples ≈ 69 GiB) would OOM long before this.
	if n := testing.AllocsPerRun(20, func() {
		d.DecodeBinary(frame)
	}); n > 8 {
		t.Fatalf("hostile tuple count allocated %.0f times per decode", n)
	}

	// Attr string running past the payload.
	payload = appendF64(nil, 0)
	payload = appendU16(payload, 1)
	payload = appendU16(payload, 500) // claims 500 bytes, none follow
	frame = frameFor(payload)
	if _, err := d.DecodeBinary(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overlong attr length: got %v, want ErrTruncated", err)
	}

	// Attr reference outside the table.
	payload = appendF64(nil, 0)
	payload = appendU16(payload, 0)
	payload = appendU16(payload, 3) // default ref with empty table
	payload = appendU32(payload, 0)
	frame = frameFor(payload)
	if _, err := d.DecodeBinary(frame); !errors.Is(err, ErrInvalidAttr) {
		t.Fatalf("dangling default ref: got %v, want ErrInvalidAttr", err)
	}

	// Invalid UTF-8 in the attr table.
	payload = appendF64(nil, 0)
	payload = appendU16(payload, 1)
	payload = appendU16(payload, 2)
	payload = append(payload, 0xff, 0xfe)
	payload = appendU16(payload, 0)
	payload = appendU32(payload, 0)
	frame = frameFor(payload)
	if _, err := d.DecodeBinary(frame); !errors.Is(err, ErrInvalidAttr) {
		t.Fatalf("invalid UTF-8 attr: got %v, want ErrInvalidAttr", err)
	}
}

// frameFor wraps a payload in a valid header (length + CRC).
func frameFor(payload []byte) []byte {
	frame := append([]byte{}, Magic[:]...)
	frame = appendU32(frame, uint32(len(payload)))
	frame = appendU32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

func TestFrameReaderStream(t *testing.T) {
	var buf []byte
	var want []Batch
	for _, n := range []int{3, 0, 17} {
		b := testBatch(n)
		for i := range b.Tuples {
			if b.Tuples[i].Attr == "" {
				b.Tuples[i].Attr = b.Attr
			}
		}
		want = append(want, b)
		var err error
		if buf, err = AppendFrame(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	d := BorrowDecoder()
	defer d.Release()
	fr := NewFrameReader(bytes.NewReader(buf), d)
	for i, w := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !batchesEqual(got, w) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}

	// A stream cut mid-frame is truncation, not a clean EOF.
	fr = NewFrameReader(bytes.NewReader(buf[:len(buf)-5]), d)
	var err error
	for err == nil {
		_, err = fr.Next()
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut stream: got %v, want ErrTruncated", err)
	}
}

func TestDecoderReuseAcrossBatches(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()
	a, err := d.DecodeJSON([]byte(`{"attr":"a","observations":[{"id":1,"t":1,"value":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tuples) != 1 || a.Tuples[0].Attr != "a" {
		t.Fatalf("first decode: %+v", a)
	}
	b, err := d.DecodeJSON([]byte(`{"attr":"b","observations":[{"id":2,"t":2,"value":2},{"id":3,"t":3,"value":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Tuples) != 2 || b.Tuples[0].ID != 2 || b.Tuples[1].Attr != "b" {
		t.Fatalf("second decode: %+v", b)
	}
}

func TestInternTableBounded(t *testing.T) {
	d := BorrowDecoder()
	for i := 0; i < 3000; i++ {
		body := fmt.Sprintf(`{"attr":"hostile-%d","observations":[]}`, i)
		if _, err := d.DecodeJSON([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.attrs) < 1024 {
		t.Fatalf("intern table unexpectedly small before release: %d", len(d.attrs))
	}
	d.Release()
	d2 := BorrowDecoder()
	defer d2.Release()
	if len(d2.attrs) > 1024 {
		t.Fatalf("intern table not reset after hostile cardinality: %d", len(d2.attrs))
	}
}

func TestDecodeJSONZeroAllocs(t *testing.T) {
	// The first body (as the Go client renders it) and the third (as
	// bench/'s producer does) are compact, so compactObservation reads them;
	// the second takes every path around it: an unknown field, whitespace
	// around keys, a known key spelled with an escape (which must still set
	// the id).
	offPath := []byte(`{"attr":"temperature","observations":[` +
		`{"id":1,"t":0.5,"value":20.5,"unit":"C","extra":{"k":[1,"two"]}},` +
		`{ "id" : 2 , "t" : 1.5 ,	"value"	: 21 , "sensor" : 4 },` +
		`{"\u0069d":3,"a\u0074tr":"humidity","t":2.5,"valu\u0065":22}]}`)
	d := BorrowDecoder()
	defer d.Release()
	for _, body := range [][]byte{jsonBody(64), offPath, compactBody(64)} {
		got, err := d.DecodeJSON(body) // warm: grow buffer, intern attrs
		if err != nil {
			t.Fatal(err)
		}
		if want := refDecode(t, body); !batchesEqual(got, want) {
			t.Fatalf("DecodeJSON(%s):\n got %+v\nwant %+v", body, got, want)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := d.DecodeJSON(body); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("steady-state JSON decode of %.60s…: %.1f allocs/op, want 0", body, n)
		}
	}
	if got, _ := d.DecodeJSON(offPath); len(got.Tuples) != 3 || got.Tuples[2].ID != 3 || got.Tuples[2].Attr != "humidity" {
		t.Fatalf("escaped keys did not name their fields: %+v", got.Tuples)
	}
}

func TestDecodeBinaryZeroAllocs(t *testing.T) {
	frame, err := AppendFrame(nil, testBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	d := BorrowDecoder()
	defer d.Release()
	if _, err := d.DecodeBinary(frame); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := d.DecodeBinary(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state binary decode: %.1f allocs/op, want 0", n)
	}
}

// jsonBody renders the canonical JSON body for testBatch(n) the way the
// Go client does.
func jsonBody(n int) []byte {
	b := testBatch(n)
	type obs struct {
		ID     uint64  `json:"id"`
		Attr   string  `json:"attr,omitempty"`
		T      float64 `json:"t"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Value  float64 `json:"value"`
		Sensor *int    `json:"sensor,omitempty"`
	}
	out := struct {
		Attr         string   `json:"attr,omitempty"`
		Watermark    *float64 `json:"watermark,omitempty"`
		Observations []obs    `json:"observations"`
	}{Attr: b.Attr, Observations: make([]obs, 0, len(b.Tuples))}
	if !math.IsNaN(b.Watermark) {
		out.Watermark = &b.Watermark
	}
	for _, tp := range b.Tuples {
		o := obs{ID: tp.ID, Attr: tp.Attr, T: tp.T, X: tp.X, Y: tp.Y, Value: tp.Value}
		if tp.Sensor >= 0 {
			s := tp.Sensor
			o.Sensor = &s
		}
		out.Observations = append(out.Observations, o)
	}
	body, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return body
}

// compactBody renders testBatch(n) the way bench/'s producer writes JSON:
// all seven fields per observation in a fixed order, shortest floats, no
// whitespace.
func compactBody(n int) []byte {
	b := testBatch(n)
	body := []byte(`{"observations":[`)
	for i, tp := range b.Tuples {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"id":%d,"attr":"%s","t":%s,"x":%s,"y":%s,"value":%s,"sensor":%d}`,
			tp.ID, tp.Attr, strconv.FormatFloat(tp.T, 'g', -1, 64), strconv.FormatFloat(tp.X, 'g', -1, 64),
			strconv.FormatFloat(tp.Y, 'g', -1, 64), strconv.FormatFloat(tp.Value, 'g', -1, 64), tp.Sensor)
	}
	return append(body, ']', '}')
}

func TestDecompressGzipRoundTrip(t *testing.T) {
	plain := jsonBody(32)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(plain)
	zw.Close()

	for _, enc := range []string{"gzip", "x-gzip"} {
		rc, err := Decompress(bytes.NewReader(z.Bytes()), enc)
		if err != nil {
			t.Fatalf("Decompress(%s): %v", enc, err)
		}
		got, err := ReadBody(rc, MaxFrameBytes, BorrowBuf())
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("gzip round trip mismatch (%s)", enc)
		}
		ReleaseBuf(got)
	}
}

func TestDecompressAppendGzip(t *testing.T) {
	plain := jsonBody(16)
	z := AppendGzip(nil, plain)
	rc, err := Decompress(bytes.NewReader(z), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("AppendGzip round trip: err=%v equal=%v", err, bytes.Equal(got, plain))
	}
}

func TestDecompressIdentityAndUnknown(t *testing.T) {
	rc, err := Decompress(strings.NewReader("x"), "")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := Decompress(strings.NewReader("x"), "br"); !errors.Is(err, ErrUnsupportedEncoding) {
		t.Fatalf("unknown encoding: got %v, want ErrUnsupportedEncoding", err)
	}
	if _, err := Decompress(strings.NewReader("x"), "zstd"); !errors.Is(err, ErrUnsupportedEncoding) {
		t.Fatalf("unregistered zstd: got %v, want ErrUnsupportedEncoding", err)
	}
}

func TestGzipBombHitsCap(t *testing.T) {
	// 64 MiB of zeros compresses to ~64 KiB; the cap must trip on the
	// decompressed size long before 64 MiB is buffered.
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		zw.Write(zeros)
	}
	zw.Close()
	if z.Len() > 1<<20 {
		t.Fatalf("bomb unexpectedly large compressed: %d", z.Len())
	}
	rc, err := Decompress(bytes.NewReader(z.Bytes()), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	buf, err := ReadBody(rc, MaxFrameBytes, BorrowBuf())
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("gzip bomb: got %v, want ErrBodyTooLarge", err)
	}
	if cap(buf) > MaxFrameBytes+(1<<16) {
		t.Fatalf("bomb buffered %d bytes past the cap", cap(buf))
	}
}

func TestDeflateRoundTrip(t *testing.T) {
	plain := jsonBody(8)
	var z bytes.Buffer
	fw, _ := flate.NewWriter(&z, flate.DefaultCompression)
	fw.Write(plain)
	fw.Close()
	rc, err := Decompress(bytes.NewReader(z.Bytes()), "deflate")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("deflate round trip: err=%v equal=%v", err, bytes.Equal(got, plain))
	}
}

func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"attr":"temperature","watermark":41.5,"observations":[{"id":7,"t":40,"x":1,"y":2,"value":17,"sensor":3}]}`))
	f.Add([]byte(`{"observations":[{"id":1,"t":1e-300,"value":3.14}]}`))
	f.Add([]byte(`{"attr":"😀","unknown":[[[{"x":null}]]]}`))
	if frame, err := AppendFrame(nil, testBatch(5)); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		mangled := append([]byte{}, frame...)
		mangled[14] ^= 0xff
		f.Add(mangled)
	}
	f.Add([]byte("CQB1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := BorrowDecoder()
		defer d.Release()
		// Neither path may panic; errors are the contract.
		if b, err := d.DecodeJSON(data); err == nil {
			_ = len(b.Tuples)
		}
		if b, err := d.DecodeBinary(data); err == nil {
			_ = len(b.Tuples)
		}
		fr := NewFrameReader(bytes.NewReader(data), d)
		for {
			if _, err := fr.Next(); err != nil {
				break
			}
		}
	})
}

// numberToken is the decoder's number grammar: RFC 8259's, except that
// leading zeros pass (as they always have here; strconv reads them the same).
var numberToken = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzJSONNumber holds jparser.number to strconv on every token: one in the
// grammar and in float64's range decodes to ParseFloat's bits, anything else
// is a *SyntaxError, never a panic or a near miss.
func FuzzJSONNumber(f *testing.F) {
	for _, tok := range []string{
		"0", "-0", "21.5", "0.001", "99.99", "7.122999999999999", "1e22", "1e23", "1e-22", "1e-23",
		"4503599627370495", "4503599627370496", "9007199254740993", "450359962737049.5e1",
		"0.30000000000000004", "1.7976931348623157e308", "1.8e308", "5e-324", "2e-324", "1e-400",
		"007", "-", "+1", ".5", "1.", "1e", "1e+", "0x10", "1_000", "Inf", "NaN", "1e99999", "0e99999",
		"0." + strings.Repeat("0", 30) + "1e31", "1e-10000", "1E5", "--1", "1.2.3", "1e5e5",
	} {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if strings.ContainsAny(tok, "{}[]\":, \t\r\n") {
			return // would change the body's structure, not the number's spelling
		}
		d := BorrowDecoder()
		defer d.Release()
		got, err := d.DecodeJSON([]byte(`{"observations":[{"t":` + tok + `}]}`))
		want, perr := strconv.ParseFloat(tok, 64)
		if numberToken.MatchString(tok) && perr == nil {
			if err != nil {
				t.Fatalf("number %q refused: %v", tok, err)
			}
			if math.Float64bits(got.Tuples[0].T) != math.Float64bits(want) {
				t.Fatalf("number %q: got %x, strconv %x", tok, math.Float64bits(got.Tuples[0].T), math.Float64bits(want))
			}
			return
		}
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("token %q: got %v (%+v), want a *SyntaxError", tok, err, got.Tuples)
		}
	})
}

// compactObs is one observation as bench/'s egress_json producer writes it.
const compactObs = `{"id":123456,"attr":"rain","t":7.042,"x":3.141,"y":0,"value":12.5,"sensor":17}`

// TestCompactObservationReadsProducerShape holds the recognizer to the
// shapes it exists for: every element of the Go client's body and of
// bench/'s producer's is read by compactObservation, none by the general
// parser.
func TestCompactObservationReadsProducerShape(t *testing.T) {
	d := BorrowDecoder()
	defer d.Release()
	shapes := [][]byte{jsonBody(64), compactBody(64), []byte(`{"observations":[` + compactObs + `,` + compactObs + `]}`)}
	for _, body := range shapes {
		d.buf.Tuples = d.buf.Tuples[:0]
		p := jparser{d: d, data: body, off: bytes.IndexByte(body, '[') + 1}
		for p.compactObservation() && body[p.off] == ',' {
			p.off++
		}
		if p.off != len(body)-2 {
			t.Fatalf("compactObservation declined %.60q…", body[p.off:])
		}
	}
}

// FuzzCompactObservation holds compactObservation to parseObservation on any
// bytes placed as one observations element: either the recognizer declines
// with the cursor and the tuple buffer untouched, or the general parser
// accepts the same bytes, stops at the same offset and builds the same tuple,
// float bits included.
func FuzzCompactObservation(f *testing.F) {
	// obs7 is an element of the root benchmark's obs7Body, whose t has the
	// 17 digits that shortest rendering gives 7 + 685/1000.
	const obs7 = `{"id":33,"attr":"rain","t":7.6850000000000005,"x":3.583,"y":1.192,"value":90.4,"sensor":404}`
	for _, s := range []string{
		compactObs, obs7,
		`{"t":-0,"x":-0.0,"y":-12.5,"value":-1,"sensor":-0,"id":0}`,
		`{"t":123456789012345,"x":1234567.89012345,"y":0.00000000000001,"value":-99999.9999999999}`,
		`{"t":1234567890123456,"x":1234567.890123456,"y":0.000000000000001,"value":1}`,
		`{"t":12345678.5,"x":87654321,"y":-12345678.123,"value":99999999.9999999}`,
		`{"t":01.50,"x":007,"id":007,"sensor":-007}`,
		`{"t":1e3,"x":1.5E-2,"y":2e+2,"value":0}`, `{"id":1e2}`, `{"sensor":1.5}`,
		`{"attr":"r\u0061in","t":1}`, `{"\u0074":1}`, `{"attr":"a\"b","t":1}`, `{"attr":"` + "\x01" + `"}`,
		`{"t":1,"t":2,"id":3,"id":4,"attr":"a","attr":"b","sensor":5,"sensor":-6}`,
		`{"t":1,"unit":"C"}`, `{"sensor":null,"t":1}`, `{"id":-1}`, `{}`, `{"t":.5}`, `{"t":1.}`, `{"t":--1}`,
		`{"t":0.3,"x":0.7,"y":1.1,"value":2.675}`, `{"t":1.,"x":2}`, `{"t":12.,"value":1}`,
		`{"id":123456789012345678}`, `{"id":1234567890123456789}`, `{"id":18446744073709551615}`,
		`{"sensor":-123456789012345678}`, `{"sensor":-9223372036854775808}`, `{"sensor":9999999999999999999}`,
	} {
		f.Add([]byte(s))
	}
	for _, base := range []string{compactObs, obs7} {
		for i := 0; i <= len(base); i++ {
			f.Add([]byte(base[:i]))
			f.Add([]byte(base[:i] + " " + base[i:]))
		}
	}
	const at = len(`{"observations":[`)
	f.Fuzz(func(t *testing.T, elem []byte) {
		data := append(append([]byte(`{"observations":[`), elem...), ']', '}')
		d := BorrowDecoder()
		defer d.Release()
		p := jparser{d: d, data: data, off: at}
		if !p.compactObservation() {
			if p.off != at || len(d.buf.Tuples) != 0 {
				t.Fatalf("%q: declined, but moved the cursor to %d or kept %d tuples", elem, p.off, len(d.buf.Tuples))
			}
			return
		}
		got, end := d.buf.Tuples[0], p.off
		d.buf.Tuples = d.buf.Tuples[:0]
		q := jparser{d: d, data: data, off: at}
		if err := q.parseObservation(); err != nil {
			t.Fatalf("%q: compactObservation accepted what parseObservation refuses: %v", elem, err)
		}
		want := d.buf.Tuples[0]
		if q.off != end {
			t.Fatalf("%q: compactObservation stopped at %d, parseObservation at %d", elem, end, q.off)
		}
		if got.ID != want.ID || got.Attr != want.Attr || got.Sensor != want.Sensor ||
			math.Float64bits(got.T) != math.Float64bits(want.T) ||
			math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("%q:\n compact %+v\n general %+v", elem, got, want)
		}
	})
}
