// Package planner implements the paper's Section VI query-optimization
// extension: "we should define the cost of processing a single query, and
// prepare an execution topology that minimizes this cost. Response time,
// power consumption, communication cost due to operator placement are some
// of the aspects that we plan to consider."
//
// The cost model prices the one execution topology the fabricator builds —
// per-cell T taps, a P per partial cell, one n-ary U-operator — from first
// principles: expected tuples per epoch flowing through each operator
// (work), the number of operators (state/memory), and the merge-phase depth
// (response time). EstimateQueryCost prices a whole query before insertion
// so admission control can reason about it.
//
// The planner answers what-ifs: besides the offline tool (cmd/craqr-plan),
// the service serves the Explain table through the CrAQL EXPLAIN statement
// and the HTTP plan endpoint (GET /v1/sessions/{s}/queries/{q}/plan — see
// docs/API.md and DESIGN.md, "Planning and adaptivity"). Submission does
// not consult it: there is nothing to choose. Explanation.Table is the
// canonical text rendering shared by every surface, so EXPLAIN output is
// byte-identical wherever it is printed.
package planner

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/topology"
)

// Weights converts the three cost aspects into one scalar. Zero values are
// allowed; a zero-valued Weights prices everything at zero, so use
// DefaultWeights for a sensible balance.
type Weights struct {
	// PerTuple is the cost of one tuple traversing one operator
	// (CPU/power).
	PerTuple float64
	// PerOperator is the cost of keeping one operator alive (state,
	// scheduling).
	PerOperator float64
	// PerDepth is the cost of one level of merge depth (response time —
	// each U level adds buffering latency of up to one batch).
	PerDepth float64
}

// DefaultWeights balances the aspects for epoch-batch workloads: work
// dominates.
func DefaultWeights() Weights {
	return Weights{PerTuple: 1, PerOperator: 50, PerDepth: 200}
}

// Validate rejects negative weights.
func (w Weights) Validate() error {
	if w.PerTuple < 0 || w.PerOperator < 0 || w.PerDepth < 0 {
		return errors.New("planner: weights must be non-negative")
	}
	return nil
}

// CostEstimate prices a query's plan.
type CostEstimate struct {
	// Mode is always MergeFlat; kept only because bench/trace.go reads it
	// (ROADMAP item 2 deletes it).
	Mode      topology.MergeMode
	Operators int     // operators created for this query (T taps + P + U)
	Depth     int     // merge-phase depth
	TuplesPE  float64 // expected tuples/epoch through this query's operators
	Total     float64 // weighted scalar cost
}

// String renders the estimate.
func (c CostEstimate) String() string {
	return fmt.Sprintf("flat: ops=%d depth=%d tuples/epoch=%.1f cost=%.1f", c.Operators, c.Depth, c.TuplesPE, c.Total)
}

// mergeShape returns the U-operator count and merge depth of a plan over n
// leaves, without building any operators: one n-ary U-operator at depth 1,
// or nothing when a single leaf forwards directly. It mirrors
// topology.BuildMergePlan.
func mergeShape(n int) (unions, depth int) {
	if n <= 1 {
		return 0, 0
	}
	return 1, 1
}

// EstimateQueryCost prices query q on the grid. epochLength converts the
// query's rate into expected tuples per epoch. The estimate covers the
// operators the query adds: one T tap per overlapped cell (the F-operator
// and higher-rate chain prefix are shared, so they are charged to the
// queries that created them), one P per partial cell, and the merge plan's
// U-operator.
func EstimateQueryCost(grid *geom.Grid, q query.Query, epochLength float64, w Weights) (CostEstimate, error) {
	if grid == nil {
		return CostEstimate{}, errors.New("planner: nil grid")
	}
	if err := w.Validate(); err != nil {
		return CostEstimate{}, err
	}
	if err := q.Validate(grid); err != nil {
		return CostEstimate{}, fmt.Errorf("planner: %w", err)
	}
	if epochLength <= 0 {
		return CostEstimate{}, errors.New("planner: epochLength must be positive")
	}
	overlaps := grid.Overlapping(q.Region)
	if len(overlaps) == 0 {
		return CostEstimate{}, errors.New("planner: query overlaps no cells")
	}
	unions, depth := mergeShape(len(overlaps))
	ops := unions
	partial := 0
	coveredArea := 0.0
	for _, ov := range overlaps {
		ops++ // the T tap (worst case: a fresh T-operator per cell)
		if ov.Frac < 1-1e-9 {
			ops++ // the P-operator
			partial++
		}
		coveredArea += ov.Rect.Area()
	}
	// Tuples/epoch: the per-cell chain delivers rate q.Rate on the overlap
	// region; each tuple crosses the T tap, possibly a P, and `depth` U
	// levels.
	perEpoch := q.Rate * coveredArea * epochLength
	hops := 1.0 + float64(partial)/float64(len(overlaps)) + float64(depth)
	tuples := perEpoch * hops
	return CostEstimate{
		Mode:      topology.MergeFlat,
		Operators: ops,
		Depth:     depth,
		TuplesPE:  tuples,
		Total:     w.PerTuple*tuples + w.PerOperator*float64(ops) + w.PerDepth*float64(depth),
	}, nil
}

// ChooseMergeMode is EstimateQueryCost; kept only because bench/trace.go
// calls it (ROADMAP item 2 deletes it).
func ChooseMergeMode(grid *geom.Grid, q query.Query, epochLength float64, w Weights) (CostEstimate, error) {
	return EstimateQueryCost(grid, q, epochLength, w)
}

// Explanation is the pricing of one query. It backs the CrAQL EXPLAIN
// statement, the HTTP plan endpoint and cmd/craqr-plan.
type Explanation struct {
	Query    query.Query
	Estimate CostEstimate
	// Shared, when non-nil, reports the live shared subplan the query's
	// normal form resolves to in a running session: the topology was
	// fabricated once and Refs queries ride it. The stateless planner never
	// sets it — the engine annotates explanations against its fabricator
	// (offline surfaces like craqr-plan have no live topology to report).
	Shared *SharedPlan
}

// SharedPlan annotates an explanation with the live shared-subplan group
// serving the query's normal form.
type SharedPlan struct {
	// Refs is the number of resident queries attached to the subplan.
	Refs int
}

// Explain prices q — what every EXPLAIN surface serves.
func Explain(grid *geom.Grid, q query.Query, epochLength float64, w Weights) (Explanation, error) {
	est, err := EstimateQueryCost(grid, q, epochLength, w)
	if err != nil {
		return Explanation{}, err
	}
	return Explanation{Query: q, Estimate: est}, nil
}

// Table renders the explanation as text: the estimate's line and — when the
// engine annotated a live shared subplan — one trailing "shared:" line.
// Every EXPLAIN surface (CrAQL, HTTP, craqr-plan) prints this exact
// rendering.
func (ex Explanation) Table() string {
	var b strings.Builder
	b.WriteString(ex.Estimate.String())
	b.WriteByte('\n')
	if ex.Shared != nil {
		fmt.Fprintf(&b, "shared: refs=%d (subplan fabricated once, fanned out per query)\n", ex.Shared.Refs)
	}
	return b.String()
}
