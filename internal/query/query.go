// Package query defines acquisitional queries over mobile crowdsensed data
// streams. Per the paper, the simplest acquisitional query specifies three
// things: (1) the attribute to acquire, (2) the region to acquire it from,
// and (3) the spatio-temporal rate (per unit area and time) at which to
// acquire it — e.g. Q⟨1⟩: acquire rain from R′ at 10 /km²/min. Validate
// checks a query against the processing grid; the fabricator that runs a
// query (internal/topology) numbers it and keeps it while it lives.
package query

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// Query is one acquisitional query Q⟨j⟩.
type Query struct {
	// ID is the identifier the fabricator assigned, e.g. "Q1".
	ID string
	// Attr is the attribute A⟨j⟩ to acquire (e.g. "rain", "temp").
	Attr string
	// Region is the sub-region R′ ⊆ R to acquire from.
	Region geom.Rect
	// Rate is the requested acquisition rate λ per unit area and time.
	Rate float64
}

// MaxRate bounds a query's rate. No fleet acquires anywhere near it, and it
// sits far enough below the float range that the quantities derived from a
// rate — the F-operator's 1.2× target, the tuples per epoch EXPLAIN prices —
// stay finite.
const MaxRate = 1e12

// ErrRate is wrapped by Validate's refusal of a rate outside (0, MaxRate].
var ErrRate = errors.New("query: rate out of range")

// String renders the query in the paper's style.
func (q Query) String() string {
	return fmt.Sprintf("%s: acquire %s from %v at rate %g", q.ID, q.Attr, q.Region, q.Rate)
}

// Validate checks the query against the grid: the attribute must be named,
// the rate in (0, MaxRate], the region non-empty and overlapping the grid,
// and — per the paper — the region's area must be at least one grid cell's
// area ("a single-attribute query should be on a region with area at least
// area(R(q,r))"). Submit and EXPLAIN both run it.
func (q Query) Validate(grid *geom.Grid) error {
	if q.Attr == "" {
		return errors.New("query: attribute must be non-empty")
	}
	if !(q.Rate > 0 && q.Rate <= MaxRate) {
		return fmt.Errorf("%w: want (0, %g], got %g", ErrRate, MaxRate, q.Rate)
	}
	if q.Region.IsEmpty() {
		return errors.New("query: region must be non-empty")
	}
	if grid == nil {
		return errors.New("query: validation requires a grid")
	}
	if len(grid.Overlapping(q.Region)) == 0 {
		return fmt.Errorf("query: region %v does not overlap the gridded region %v", q.Region, grid.Region())
	}
	if q.Region.Area() < grid.CellArea()-geom.Epsilon {
		return fmt.Errorf("query: region area %g is below the one-cell minimum %g", q.Region.Area(), grid.CellArea())
	}
	return nil
}
