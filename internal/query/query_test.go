package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func testGrid(t *testing.T) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.NewRect(0, 0, 6, 6), 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func validQuery() Query {
	return Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 10}
}

func TestValidate(t *testing.T) {
	g := testGrid(t)
	if err := validQuery().Validate(g); err != nil {
		t.Fatal(err)
	}
	cases := []Query{
		{Attr: "", Region: geom.NewRect(0, 0, 4, 4), Rate: 10},
		{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 0},
		{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: -2},
		{Attr: "rain", Region: geom.Rect{}, Rate: 10},
		{Attr: "rain", Region: geom.NewRect(10, 10, 14, 14), Rate: 10}, // off grid
		{Attr: "rain", Region: geom.NewRect(0, 0, 1, 1), Rate: 10},     // below one-cell minimum (cell area 4)
	}
	for i, q := range cases {
		if q.Validate(g) == nil {
			t.Errorf("case %d should be invalid: %v", i, q)
		}
	}
	if err := validQuery().Validate(nil); err == nil {
		t.Error("nil grid should error")
	}
}

// TestValidateRateBound: a rate outside (0, MaxRate] — one whose derived
// quantities leave the float range included — is refused with ErrRate, and
// MaxRate itself is accepted.
func TestValidateRateBound(t *testing.T) {
	g := testGrid(t)
	q := validQuery()
	for _, rate := range []float64{MaxRate, 1e6} {
		q.Rate = rate
		if err := q.Validate(g); err != nil {
			t.Errorf("rate %g: %v", rate, err)
		}
	}
	for _, rate := range []float64{0, -1, 2 * MaxRate, 1e308, math.MaxFloat64, math.Inf(1), math.NaN()} {
		q.Rate = rate
		if err := q.Validate(g); !errors.Is(err, ErrRate) {
			t.Errorf("rate %g: %v, want ErrRate", rate, err)
		}
	}
}

func TestMinimumAreaIsExactlyOneCell(t *testing.T) {
	g := testGrid(t) // cell area 4
	q := Query{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 1}
	if err := q.Validate(g); err != nil {
		t.Fatalf("exactly-one-cell query rejected: %v", err)
	}
}

func TestQueryString(t *testing.T) {
	q := validQuery()
	q.ID = "Q1"
	if q.String() == "" {
		t.Fatal("String empty")
	}
}
