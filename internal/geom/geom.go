// Package geom provides the planar geometry substrate used throughout CrAQR:
// points, axis-aligned rectangles (the paper's regions), the √h×√h logical
// grid that partitions the area of interest, and the region algebra needed
// by the Partition and Union PMAT operators (overlap, containment,
// adjacency, rectangle union).
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Epsilon is the tolerance used for floating-point geometric comparisons
// such as adjacency of rectangle sides.
const Epsilon = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, half-open on its upper edges:
// [MinX, MaxX) × [MinY, MaxY). Half-openness makes grid partitioning exact:
// every point belongs to exactly one cell.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect constructs a rectangle, normalizing coordinate order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// String renders the rectangle as "[x0,x1)×[y0,y1)".
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g)x[%g,%g)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area, the paper's area(·) function.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// IsEmpty reports whether the rectangle has no interior.
func (r Rect) IsEmpty() bool { return r.Width() <= 0 || r.Height() <= 0 }

// Contains reports whether the point lies inside the half-open rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether other lies entirely within r.
func (r Rect) ContainsRect(other Rect) bool {
	return other.MinX >= r.MinX-Epsilon && other.MaxX <= r.MaxX+Epsilon &&
		other.MinY >= r.MinY-Epsilon && other.MaxY <= r.MaxY+Epsilon
}

// Center returns the rectangle's centroid.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Intersect returns the overlapping region of two rectangles. The boolean is
// false when they do not overlap (an empty intersection).
func (r Rect) Intersect(other Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, other.MinX),
		MinY: math.Max(r.MinY, other.MinY),
		MaxX: math.Min(r.MaxX, other.MaxX),
		MaxY: math.Min(r.MaxY, other.MaxY),
	}
	if out.IsEmpty() {
		return Rect{}, false
	}
	return out, true
}

// Overlaps reports whether the rectangles share interior area.
func (r Rect) Overlaps(other Rect) bool {
	_, ok := r.Intersect(other)
	return ok
}

// Equal reports coordinate equality within Epsilon.
func (r Rect) Equal(other Rect) bool {
	return math.Abs(r.MinX-other.MinX) < Epsilon && math.Abs(r.MaxX-other.MaxX) < Epsilon &&
		math.Abs(r.MinY-other.MinY) < Epsilon && math.Abs(r.MaxY-other.MaxY) < Epsilon
}

// BoundingBox returns the smallest rectangle containing all inputs. It
// returns an error for an empty input.
func BoundingBox(rects []Rect) (Rect, error) {
	if len(rects) == 0 {
		return Rect{}, errors.New("geom: BoundingBox requires at least one rectangle")
	}
	out := rects[0]
	for _, r := range rects[1:] {
		out.MinX = math.Min(out.MinX, r.MinX)
		out.MinY = math.Min(out.MinY, r.MinY)
		out.MaxX = math.Max(out.MaxX, r.MaxX)
		out.MaxY = math.Max(out.MaxY, r.MaxY)
	}
	return out, nil
}

// Disjoint reports whether no pair of rectangles overlaps — the paper's
// requirement R*₁ ∩ R*₂ = ∅ on Partition outputs.
func Disjoint(rects []Rect) bool {
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Overlaps(rects[j]) {
				return false
			}
		}
	}
	return true
}
