package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpts runs every experiment in fast mode.
func quickOpts() Options { return Options{Seed: 1, Quick: true} }

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tab, err := exp.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if tab.ID != exp.ID {
				t.Fatalf("table id %s, want %s", tab.ID, exp.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			out := tab.String()
			if !strings.Contains(out, exp.ID) {
				t.Fatal("render missing experiment id")
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("note %d", 7)
	out := tab.String()
	if !strings.Contains(out, "== X: demo ==") {
		t.Fatalf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "note 7") {
		t.Fatal("note missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, sep, 2 rows, note
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestE1OperatorCountsMatchFig2(t *testing.T) {
	tab, err := E1Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// After the third insert: 8 pipelines, 8 F, 8 T, 2 P, 3 U.
	row := tab.Rows[2]
	want := []string{"insert 3", "Q3(temp@3)", "8", "8", "8", "2", "3", "ok"}
	for i, cell := range want {
		if row[i] != cell {
			t.Fatalf("E1 row 3 col %d = %q, want %q (row %v)", i, row[i], cell, row)
		}
	}
	// After deleting Q1: rain pipelines gone.
	del := tab.Rows[3]
	if del[2] != "4" || del[7] != "ok" {
		t.Fatalf("E1 deletion row = %v", del)
	}
}

func TestE2RatiosNearOne(t *testing.T) {
	tab, err := E2Thin(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("thin ratio %g outside [0.9, 1.1] (row %v)", ratio, row)
		}
	}
}

func TestE3FlattenImprovesUniformity(t *testing.T) {
	tab, err := E3FlattenHomogenize(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		before, _ := strconv.ParseFloat(row[1], 64)
		after, _ := strconv.ParseFloat(row[2], 64)
		if before > 0.01 {
			t.Fatalf("input was not skewed: p=%g", before)
		}
		if after < 0.001 {
			t.Fatalf("output not homogenized: p=%g", after)
		}
	}
}

func TestE4ViolationsMonotone(t *testing.T) {
	tab, err := E4FlattenViolations(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tab.Rows {
		nv, _ := strconv.ParseFloat(row[1], 64)
		if nv < prev-1e-9 {
			t.Fatalf("N_v not monotone: %v", tab.Rows)
		}
		prev = nv
	}
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if last < 50 {
		t.Fatalf("4x over-request only %g%% violations", last)
	}
}

func TestE5RatePreserved(t *testing.T) {
	tab, err := E5PartitionUnion(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		branch, _ := strconv.ParseFloat(row[1], 64)
		union, _ := strconv.ParseFloat(row[2], 64)
		if branch < 0.9 || branch > 1.1 || union < 0.9 || union > 1.1 {
			t.Fatalf("rate not preserved: %v", row)
		}
		if row[3] != "0" {
			t.Fatalf("tuples lost: %v", row)
		}
		if clip, _ := strconv.ParseFloat(row[4], 64); clip < 0.9 || clip > 1.1 {
			t.Fatalf("clipped rate not preserved: %v", row)
		}
	}
}

func TestE13ChainSavesDraws(t *testing.T) {
	tab, err := E13TChainOrder(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		chain, _ := strconv.ParseFloat(row[1], 64)
		star, _ := strconv.ParseFloat(row[2], 64)
		if chain >= star {
			t.Fatalf("shared chain not cheaper: %v", row)
		}
	}
}

func TestE14ErrorGrowsWithSigma(t *testing.T) {
	tab, err := E14GPSError(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if first != 0 {
		t.Fatalf("zero-σ wrong-cell fraction = %g", first)
	}
	if last <= first {
		t.Fatal("wrong-cell fraction did not grow with σ")
	}
}

func TestE15FlattenRemovesInferenceBias(t *testing.T) {
	tab, err := E15InferenceBias(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1] // strongest skew
	rawBias, _ := strconv.ParseFloat(last[4], 64)
	flatBias, _ := strconv.ParseFloat(last[5], 64)
	if rawBias > -0.05 {
		t.Fatalf("raw stream not biased under skew: %g", rawBias)
	}
	if flatBias < -0.05 || flatBias > 0.05 {
		t.Fatalf("fabricated stream biased: %g", flatBias)
	}
}
