// Package query defines acquisitional queries over mobile crowdsensed data
// streams. Per the paper, the simplest acquisitional query specifies three
// things: (1) the attribute to acquire, (2) the region to acquire it from,
// and (3) the spatio-temporal rate (per unit area and time) at which to
// acquire it — e.g. Q⟨1⟩: acquire rain from R′ at 10 /km²/min. The package
// also provides the registry that assigns identifiers and validates queries
// against the processing grid.
package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/geom"
)

// Query is one acquisitional query Q⟨j⟩.
type Query struct {
	// ID is the registry-assigned identifier, e.g. "Q1".
	ID string
	// Attr is the attribute A⟨j⟩ to acquire (e.g. "rain", "temp").
	Attr string
	// Region is the sub-region R′ ⊆ R to acquire from.
	Region geom.Rect
	// Rate is the requested acquisition rate λ per unit area and time.
	Rate float64
}

// String renders the query in the paper's style.
func (q Query) String() string {
	return fmt.Sprintf("%s: acquire %s from %v at rate %g", q.ID, q.Attr, q.Region, q.Rate)
}

// Validate checks the query against the grid: the attribute must be named,
// the rate positive, the region non-empty and overlapping the grid, and —
// per the paper — the region's area must be at least one grid cell's area
// ("a single-attribute query should be on a region with area at least
// area(R(q,r))").
func (q Query) Validate(grid *geom.Grid) error {
	if q.Attr == "" {
		return errors.New("query: attribute must be non-empty")
	}
	if q.Rate <= 0 {
		return fmt.Errorf("query: rate must be positive, got %g", q.Rate)
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

// Registry assigns identifiers and tracks live queries. It is safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	nextSeq int
	queries map[string]Query
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{queries: make(map[string]Query)}
}

// Add validates q against the grid, assigns it the next identifier, stores
// it, and returns the stored copy.
func (r *Registry) Add(q Query, grid *geom.Grid) (Query, error) {
	if err := q.Validate(grid); err != nil {
		return Query{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSeq++
	q.ID = fmt.Sprintf("Q%d", r.nextSeq)
	r.queries[q.ID] = q
	return q, nil
}

// Get returns a live query by id.
func (r *Registry) Get(id string) (Query, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queries[id]
	return q, ok
}

// Remove deletes a query; it reports whether the id existed.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.queries[id]
	delete(r.queries, id)
	return ok
}

// List returns live queries sorted by id.
func (r *Registry) List() []Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Query, 0, len(r.queries))
	for _, q := range r.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Seq returns the sequence number of the last identifier assigned.
func (r *Registry) Seq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq
}

// Restore replaces the registry's contents with already-stored queries and
// the sequence number of the last identifier assigned — a restored session
// resumes numbering where its snapshot left off.
func (r *Registry) Restore(seq int, qs []Query) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSeq = seq
	r.queries = make(map[string]Query, len(qs))
	for _, q := range qs {
		r.queries[q.ID] = q
	}
}

// Len returns the number of live queries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}
