package geom

import (
	"errors"
	"fmt"
	"math"
)

// CellID identifies a grid cell by its (q, r) coordinates, matching the
// paper's notation R(q,r). q indexes columns (x direction), r indexes rows
// (y direction); both are zero-based.
type CellID struct {
	Q, R int
}

// String renders the cell id as "(q,r)".
func (c CellID) String() string { return fmt.Sprintf("(%d,%d)", c.Q, c.R) }

// Grid is the paper's logical √h × √h partitioning of the region of
// interest R. h is the total number of cells; the grid has Side = √h cells
// per axis. Only cells touched by queries are ever materialized by the
// topology layer — the grid itself is pure arithmetic.
type Grid struct {
	region Rect
	side   int // cells per axis (√h)
	cellW  float64
	cellH  float64
}

// NewGrid builds a grid over region with h cells, where h must be a perfect
// square (the paper partitions R into a √h × √h grid).
func NewGrid(region Rect, h int) (*Grid, error) {
	if region.IsEmpty() {
		return nil, errors.New("geom: NewGrid requires a non-empty region")
	}
	if h <= 0 {
		return nil, errors.New("geom: NewGrid requires h > 0")
	}
	side := int(math.Round(math.Sqrt(float64(h))))
	if side*side != h {
		return nil, fmt.Errorf("geom: NewGrid requires h to be a perfect square, got %d", h)
	}
	return &Grid{
		region: region,
		side:   side,
		cellW:  region.Width() / float64(side),
		cellH:  region.Height() / float64(side),
	}, nil
}

// Region returns the full gridded region R.
func (g *Grid) Region() Rect { return g.region }

// Side returns √h, the number of cells per axis.
func (g *Grid) Side() int { return g.side }

// NumCells returns h, the total number of cells.
func (g *Grid) NumCells() int { return g.side * g.side }

// CellArea returns area(R(q,r)); all cells have equal size, which is why
// the paper's budget specification needs no spatial component.
func (g *Grid) CellArea() float64 { return g.cellW * g.cellH }

// Cell returns the rectangle of cell (q, r).
func (g *Grid) Cell(id CellID) (Rect, error) {
	if id.Q < 0 || id.Q >= g.side || id.R < 0 || id.R >= g.side {
		return Rect{}, fmt.Errorf("geom: cell %v outside %dx%d grid", id, g.side, g.side)
	}
	return Rect{
		MinX: g.region.MinX + float64(id.Q)*g.cellW,
		MinY: g.region.MinY + float64(id.R)*g.cellH,
		MaxX: g.region.MinX + float64(id.Q+1)*g.cellW,
		MaxY: g.region.MinY + float64(id.R+1)*g.cellH,
	}, nil
}

// CellAt returns the id of the cell containing the point. The boolean is
// false when the point lies outside the gridded region.
func (g *Grid) CellAt(p Point) (CellID, bool) {
	if !g.region.Contains(p) {
		return CellID{}, false
	}
	q := int((p.X - g.region.MinX) / g.cellW)
	r := int((p.Y - g.region.MinY) / g.cellH)
	if q >= g.side {
		q = g.side - 1
	}
	if r >= g.side {
		r = g.side - 1
	}
	return CellID{Q: q, R: r}, true
}

// Overlap describes the intersection of a query region with one grid cell.
type Overlap struct {
	Cell CellID
	Rect Rect    // intersection rectangle
	Frac float64 // fraction of the cell covered, in (0, 1]
}

// Overlapping returns every grid cell that has non-zero overlap with the
// query region, together with the overlap rectangle and the covered
// fraction — the first step of the paper's query-insertion procedure.
func (g *Grid) Overlapping(query Rect) []Overlap {
	in, ok := g.region.Intersect(query)
	if !ok {
		return nil
	}
	q0 := int(math.Floor((in.MinX - g.region.MinX) / g.cellW))
	q1 := int(math.Ceil((in.MaxX-g.region.MinX)/g.cellW)) - 1
	r0 := int(math.Floor((in.MinY - g.region.MinY) / g.cellH))
	r1 := int(math.Ceil((in.MaxY-g.region.MinY)/g.cellH)) - 1
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= g.side {
			return g.side - 1
		}
		return v
	}
	q0, q1, r0, r1 = clamp(q0), clamp(q1), clamp(r0), clamp(r1)
	var out []Overlap
	for r := r0; r <= r1; r++ {
		for q := q0; q <= q1; q++ {
			id := CellID{Q: q, R: r}
			cell, err := g.Cell(id)
			if err != nil {
				continue
			}
			inter, ok := cell.Intersect(in)
			if !ok || inter.Area() < Epsilon {
				continue
			}
			out = append(out, Overlap{Cell: id, Rect: inter, Frac: inter.Area() / cell.Area()})
		}
	}
	return out
}
