package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, region Rect, h int) *Grid {
	t.Helper()
	g, err := NewGrid(region, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	region := NewRect(0, 0, 10, 10)
	if _, err := NewGrid(region, 0); err == nil {
		t.Error("h=0 should error")
	}
	if _, err := NewGrid(region, 8); err == nil {
		t.Error("non-square h should error")
	}
	if _, err := NewGrid(NewRect(0, 0, 0, 5), 4); err == nil {
		t.Error("empty region should error")
	}
	g := mustGrid(t, region, 9)
	if g.Side() != 3 || g.NumCells() != 9 {
		t.Fatalf("side/cells = %d/%d", g.Side(), g.NumCells())
	}
}

func TestCellGeometry(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 6, 6), 9)
	if g.CellArea() != 4 {
		t.Fatalf("cell area = %g", g.CellArea())
	}
	c, err := g.Cell(CellID{Q: 1, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(NewRect(2, 4, 4, 6)) {
		t.Fatalf("cell (1,2) = %v", c)
	}
	if _, err := g.Cell(CellID{Q: 3, R: 0}); err == nil {
		t.Error("out-of-range cell should error")
	}
	if _, err := g.Cell(CellID{Q: -1, R: 0}); err == nil {
		t.Error("negative cell should error")
	}
}

func TestCellAreaSumsToRegion(t *testing.T) {
	// Eq. (2): area(R) = Σ area(R(q,r)).
	g := mustGrid(t, NewRect(-3, 2, 9, 14), 16)
	total := 0.0
	for q := 0; q < g.Side(); q++ {
		for r := 0; r < g.Side(); r++ {
			c, err := g.Cell(CellID{Q: q, R: r})
			if err != nil {
				t.Fatal(err)
			}
			total += c.Area()
		}
	}
	if math.Abs(total-g.Region().Area()) > 1e-9 {
		t.Fatalf("Σ cell areas = %g, region = %g", total, g.Region().Area())
	}
}

func TestCellAtRoundTrip(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 9, 9), 9)
	f := func(x, y float64) bool {
		p := Point{X: math.Mod(math.Abs(x), 9), Y: math.Mod(math.Abs(y), 9)}
		id, ok := g.CellAt(p)
		if !ok {
			return false
		}
		cell, err := g.Cell(id)
		if err != nil {
			return false
		}
		return cell.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.CellAt(Point{X: -1, Y: 0}); ok {
		t.Error("outside point assigned a cell")
	}
	if _, ok := g.CellAt(Point{X: 9, Y: 9}); ok {
		t.Error("upper boundary (half-open) assigned a cell")
	}
}

func TestOverlappingFullRegion(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 6, 6), 9)
	ovs := g.Overlapping(g.Region())
	if len(ovs) != 9 {
		t.Fatalf("full region overlaps %d cells, want 9", len(ovs))
	}
	for _, ov := range ovs {
		if math.Abs(ov.Frac-1) > 1e-9 {
			t.Errorf("cell %v fraction = %g, want 1", ov.Cell, ov.Frac)
		}
	}
}

func TestOverlappingPartial(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 6, 6), 9)
	// A rect covering cell (0,0) fully and half of cell (1,0).
	ovs := g.Overlapping(NewRect(0, 0, 3, 2))
	if len(ovs) != 2 {
		t.Fatalf("overlap count = %d, want 2", len(ovs))
	}
	byCell := map[CellID]Overlap{}
	for _, ov := range ovs {
		byCell[ov.Cell] = ov
	}
	if ov := byCell[CellID{0, 0}]; math.Abs(ov.Frac-1) > 1e-9 {
		t.Errorf("cell (0,0) frac = %g", ov.Frac)
	}
	if ov := byCell[CellID{1, 0}]; math.Abs(ov.Frac-0.5) > 1e-9 {
		t.Errorf("cell (1,0) frac = %g", ov.Frac)
	}
}

func TestOverlappingDisjointQuery(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 6, 6), 9)
	if ovs := g.Overlapping(NewRect(10, 10, 12, 12)); ovs != nil {
		t.Fatalf("disjoint query overlaps %d cells", len(ovs))
	}
}

func TestOverlapAreasSumToQueryArea(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 8, 8), 16)
	query := NewRect(1.5, 0.5, 6.25, 7.75)
	total := 0.0
	for _, ov := range g.Overlapping(query) {
		total += ov.Rect.Area()
	}
	if math.Abs(total-query.Area()) > 1e-9 {
		t.Fatalf("Σ overlap areas = %g, query area = %g", total, query.Area())
	}
}

func TestCellIDString(t *testing.T) {
	if (CellID{Q: 2, R: 3}).String() != "(2,3)" {
		t.Errorf("CellID string = %s", CellID{Q: 2, R: 3})
	}
}

func TestOverlappingCoversQueryProperty(t *testing.T) {
	// Property: every point of (query ∩ region) lies in exactly one overlap
	// rectangle — the map phase never loses or double-routes a tuple.
	g := mustGrid(t, NewRect(0, 0, 12, 12), 36)
	f := func(x0, y0, w, h, px, py float64) bool {
		mod := func(v, m float64) float64 { return math.Mod(math.Abs(v), m) }
		query := NewRect(mod(x0, 12), mod(y0, 12), mod(x0, 12)+0.5+mod(w, 6), mod(y0, 12)+0.5+mod(h, 6))
		ovs := g.Overlapping(query)
		p := Point{X: mod(px, 12), Y: mod(py, 12)}
		inQuery := query.Contains(p) && g.Region().Contains(p)
		hits := 0
		for _, ov := range ovs {
			if ov.Rect.Contains(p) {
				hits++
			}
		}
		if inQuery {
			return hits == 1
		}
		return hits == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapFractionsBounded(t *testing.T) {
	g := mustGrid(t, NewRect(0, 0, 12, 12), 36)
	f := func(x0, y0, w, h float64) bool {
		mod := func(v, m float64) float64 { return math.Mod(math.Abs(v), m) }
		query := NewRect(mod(x0, 12), mod(y0, 12), mod(x0, 12)+0.5+mod(w, 6), mod(y0, 12)+0.5+mod(h, 6))
		for _, ov := range g.Overlapping(query) {
			if ov.Frac <= 0 || ov.Frac > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
