// External test package: the plan-equality property needs the planner,
// and planner → topology → craql would be an import cycle from inside
// package craql.
package craql_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/planner"
	"repro/internal/query"
)

func TestNormalizeQueryCanonicalizes(t *testing.T) {
	q := query.Query{
		ID:     "Q7",
		Attr:   "rain",
		Region: geom.Rect{MinX: 4, MinY: math.Copysign(0, -1), MaxX: 0, MaxY: 4},
		Rate:   2,
	}
	n := craql.NormalizeQuery(q)
	if n.ID != "" {
		t.Fatalf("ID not cleared: %q", n.ID)
	}
	if n.Region != geom.NewRect(0, 0, 4, 4) {
		t.Fatalf("region not canonical: %+v", n.Region)
	}
	if math.Signbit(n.Region.MinY) {
		t.Fatal("negative zero survived normalization")
	}
	// Idempotent.
	if craql.NormalizeQuery(n) != n {
		t.Fatal("NormalizeQuery is not idempotent")
	}
}

func TestCanonicalKeyEquatesTextVariants(t *testing.T) {
	// Textually different statements describing the same acquisition.
	variants := []string{
		"ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10",
		"acquire rain from rect(4,4,0,0) rate 10",
		"ACQUIRE rain FROM RECT(0.0, -0.0, 4, 4) RATE 1e1",
	}
	var want string
	for i, src := range variants {
		q, err := craql.Parse(src)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		key := craql.CanonicalKey(q)
		if i == 0 {
			want = key
			continue
		}
		if key != want {
			t.Fatalf("variant %d key %q != %q", i, key, want)
		}
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	base := "ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10"
	distinct := []string{
		"ACQUIRE temp FROM RECT(0, 0, 4, 4) RATE 10",
		"ACQUIRE Rain FROM RECT(0, 0, 4, 4) RATE 10", // attr case is significant
		"ACQUIRE rain FROM RECT(0, 0, 4, 6) RATE 10",
		"ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 11",
	}
	bq, err := craql.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := craql.CanonicalKey(bq)
	for _, src := range distinct {
		q, err := craql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if craql.CanonicalKey(q) == baseKey {
			t.Fatalf("%q collides with %q", src, base)
		}
	}
}

// TestNormalizeIdempotentQuick drives NormalizeQuery over random queries.
// testing/quick only generates finite floats, so == comparison is exact.
func TestNormalizeIdempotentQuick(t *testing.T) {
	f := func(id, attr string, x0, y0, x1, y1, rate float64) bool {
		q := query.Query{ID: id, Attr: attr, Region: geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}, Rate: rate}
		n := craql.NormalizeQuery(q)
		return craql.NormalizeQuery(n) == n && n.ID == "" &&
			n.Region.MinX <= n.Region.MaxX && n.Region.MinY <= n.Region.MaxY
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzCRAQLNormalize pins the three properties normalization promises (see
// internal/craql/normalize.go) on arbitrary input: normalization is total
// on everything that parses, idempotent, and the canonical key survives a
// Format → Parse round trip. On top of that it checks the sharing
// contract end to end: a query and its reparsed normal form must price to
// byte-identical planner explanations ("equal normal forms ⇒ equal
// plans").
func FuzzCRAQLNormalize(f *testing.F) {
	f.Add("ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10")
	f.Add("acquire Temp from rect(4,4,0,0) rate 2.5")
	f.Add("EXPLAIN ACQUIRE rain FROM RECT(-0.0, 0, 2, 2) RATE 1e1")
	f.Add("ACQUIRE a FROM RECT(-1.5, 2e1, 3.25, 40) RATE 1e-2")
	f.Add("ACQUIRE x FROM RECT(0,0,0,0) RATE 0")
	f.Add("ACQUIRE rain FROM")
	f.Add("")
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		f.Fatal(err)
	}
	weights := planner.DefaultWeights()
	f.Fuzz(func(t *testing.T, src string) {
		st, err := craql.ParseStatement(src)
		if err != nil {
			return // only the valid-parse domain carries the properties
		}
		// Total + idempotent. Query is comparable: the parser only
		// produces finite floats (range errors are rejected), so == is
		// exact.
		norm := craql.NormalizeQuery(st.Query)
		if again := craql.NormalizeQuery(norm); again != norm {
			t.Fatalf("not idempotent: %+v != %+v", again, norm)
		}
		// The canonical key is a faithful CrAQL encoding of the normal
		// form: it reparses, and reparsing reproduces the same key.
		key := craql.CanonicalKey(st.Query)
		back, err := craql.Parse(key)
		if err != nil {
			t.Fatalf("canonical key %q does not reparse: %v", key, err)
		}
		if got := craql.CanonicalKey(back); got != key {
			t.Fatalf("key not round-trip stable: %q -> %q", key, got)
		}
		if back != craql.NormalizeQuery(st.Query) {
			t.Fatalf("reparsed normal form differs: %+v != %+v", back, craql.NormalizeQuery(st.Query))
		}
		// Equal normal forms ⇒ equal plans: the original query and its
		// reparsed normal form must price identically (or fail
		// identically — most fuzzed queries won't validate on the grid).
		ex1, err1 := planner.Explain(grid, st.Query, 1, weights)
		ex2, err2 := planner.Explain(grid, back, 1, weights)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("explain divergence: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if ex1.Table() != ex2.Table() {
			t.Fatalf("plans differ for equal normal forms:\n%s\nvs\n%s", ex1.Table(), ex2.Table())
		}
	})
}
