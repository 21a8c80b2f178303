package craql

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/query"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "rain" {
		t.Fatalf("attr = %s", q.Attr)
	}
	if !q.Region.Equal(geom.NewRect(0, 0, 4, 4)) {
		t.Fatalf("region = %v", q.Region)
	}
	if q.Rate != 10 {
		t.Fatalf("rate = %g", q.Rate)
	}
	if q.ID != "" {
		t.Fatal("parser must not assign ids")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("acquire Temp from rect(1,2,3,4) rate 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "Temp" {
		t.Fatalf("attribute case not preserved: %s", q.Attr)
	}
	if q.Rate != 2.5 {
		t.Fatalf("rate = %g", q.Rate)
	}
}

func TestParseNumbers(t *testing.T) {
	q, err := Parse("ACQUIRE a FROM RECT(-1.5, 2e1, 3.25, 40) RATE 1e-2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Region.MinX != -1.5 || q.Region.MinY != 20 || q.Region.MaxX != 3.25 || q.Region.MaxY != 40 {
		t.Fatalf("region = %v", q.Region)
	}
	if math.Abs(q.Rate-0.01) > 1e-15 {
		t.Fatalf("rate = %g", q.Rate)
	}
}

func TestParseNormalizesRect(t *testing.T) {
	q, err := Parse("ACQUIRE a FROM RECT(4, 4, 0, 0) RATE 1")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Region.Equal(geom.NewRect(0, 0, 4, 4)) {
		t.Fatalf("region not normalized: %v", q.Region)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"ACQUIRE",
		"ACQUIRE rain",
		"ACQUIRE rain FROM",
		"ACQUIRE rain FROM CIRCLE(0,0,1) RATE 1",
		"ACQUIRE rain FROM RECT 0,0,1,1 RATE 1",
		"ACQUIRE rain FROM RECT(0,0,1) RATE 1",
		"ACQUIRE rain FROM RECT(0,0,1,1,2) RATE 1",
		"ACQUIRE rain FROM RECT(0,0,1,1) RATE",
		"ACQUIRE rain FROM RECT(0,0,1,1) RATE abc",
		"ACQUIRE rain FROM RECT(0,0,1,1) RATE 1 EXTRA",
		"ACQUIRE 123 FROM RECT(0,0,1,1) RATE 1",
		"ACQUIRE rain FROM RECT(0,0,1,1) RATE 1 ;",
		"@",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("ACQUIRE rain XFROM RECT(0,0,1,1) RATE 1")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T", err)
	}
	if pe.Pos != 13 {
		t.Fatalf("error position = %d, want 13", pe.Pos)
	}
	if !strings.Contains(pe.Error(), "offset 13") {
		t.Fatalf("message = %s", pe.Error())
	}
}

func TestParseBadNumberErrors(t *testing.T) {
	// "1e" lexes as a number-shaped token but fails strconv.
	if _, err := Parse("ACQUIRE rain FROM RECT(1e, 0, 1, 1) RATE 1"); err == nil {
		t.Fatal("malformed number accepted")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f := func(x0, y0, dx, dy, rate float64) bool {
		trim := func(v float64) float64 { return math.Trunc(math.Mod(v, 1000)*100) / 100 }
		q := query.Query{
			Attr:   "temp",
			Region: geom.NewRect(trim(x0), trim(y0), trim(x0)+1+math.Abs(trim(dx)), trim(y0)+1+math.Abs(trim(dy))),
			Rate:   1 + math.Abs(trim(rate)),
		}
		parsed, err := Parse(Format(q))
		if err != nil {
			return false
		}
		return parsed.Attr == q.Attr && parsed.Region.Equal(q.Region) && math.Abs(parsed.Rate-q.Rate) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseUnderscoreAttr(t *testing.T) {
	q, err := Parse("ACQUIRE air_quality_pm25 FROM RECT(0,0,2,2) RATE 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "air_quality_pm25" {
		t.Fatalf("attr = %s", q.Attr)
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	q, err := Parse("  ACQUIRE\train\nFROM  RECT ( 0 , 0 , 1 , 1 )  RATE  7  ")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attr != "rain" || q.Rate != 7 {
		t.Fatal("whitespace handling wrong")
	}
}

func TestParseScript(t *testing.T) {
	src := `
-- rain monitoring for downtown
ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10;

ACQUIRE temp FROM RECT(4, 0, 6, 4) RATE 8; -- harbor temp
ACQUIRE temp FROM RECT(1, 4, 3, 6) RATE 3;
`
	qs, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("parsed %d queries", len(qs))
	}
	if qs[0].Attr != "rain" || qs[1].Rate != 8 || qs[2].Region.MinY != 4 {
		t.Fatalf("queries = %+v", qs)
	}
}

func TestParseScriptEmpty(t *testing.T) {
	qs, err := ParseScript("-- nothing here\n ;; \n")
	if err != nil || len(qs) != 0 {
		t.Fatalf("empty script: %v, %d queries", err, len(qs))
	}
}

func TestParseScriptErrorNamesStatement(t *testing.T) {
	_, err := ParseScript("ACQUIRE a FROM RECT(0,0,2,2) RATE 1; BOGUS")
	if err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseStatementExplain(t *testing.T) {
	st, err := ParseStatement("EXPLAIN ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain {
		t.Fatal("Explain flag not set")
	}
	if st.Query.Attr != "rain" || st.Query.Rate != 10 {
		t.Fatalf("inner query wrong: %+v", st.Query)
	}
	// Keyword is case-insensitive like the rest of the grammar.
	st, err = ParseStatement("explain acquire temp from rect(0,0,1,1) rate 2")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain || st.Query.Attr != "temp" {
		t.Fatalf("lowercase explain: %+v", st)
	}
	// The plain form parses with the flag unset.
	st, err = ParseStatement("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
	if err != nil {
		t.Fatal(err)
	}
	if st.Explain {
		t.Fatal("plain statement flagged as EXPLAIN")
	}
}

func TestParseRejectsExplain(t *testing.T) {
	if _, err := Parse("EXPLAIN ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10"); err == nil {
		t.Fatal("Parse accepted EXPLAIN")
	}
}

func TestParseScriptRejectsExplain(t *testing.T) {
	_, err := ParseScript("ACQUIRE rain FROM RECT(0,0,4,4) RATE 3; EXPLAIN ACQUIRE rain FROM RECT(0,0,4,4) RATE 3")
	if err == nil {
		t.Fatal("script with EXPLAIN accepted")
	}
	if !strings.Contains(err.Error(), "statement 2") {
		t.Fatalf("error does not name the statement: %v", err)
	}
}

func TestExplainErrors(t *testing.T) {
	for _, src := range []string{
		"EXPLAIN", // nothing to explain
		"EXPLAIN EXPLAIN ACQUIRE rain FROM RECT(0,0,1,1) RATE 1", // not nestable
		"EXPLAIN SELECT 1", // not CrAQL
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded", src)
		}
	}
}
