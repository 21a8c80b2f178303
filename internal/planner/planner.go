// Package planner implements the paper's Section VI query-optimization
// extension: "we should define the cost of processing a single query, and
// prepare an execution topology that minimizes this cost. Response time,
// power consumption, communication cost due to operator placement are some
// of the aspects that we plan to consider."
//
// The cost model prices a query's execution topology from first principles:
// expected tuples per epoch flowing through each operator (work), the
// number of operators (state/memory), and the merge-phase depth (response
// time). ChooseMergeMode picks the U-operator layout minimizing the weighted
// cost, and EstimateQueryCost prices a whole query before insertion so
// admission control can reason about it.
//
// The planner answers what-ifs: besides the offline tool (cmd/craqr-plan),
// the service serves the full Explain table through the CrAQL EXPLAIN
// statement and the HTTP plan endpoint (GET
// /v1/sessions/{s}/queries/{q}/plan — see docs/API.md and DESIGN.md,
// "Planning and adaptivity"). Submission does not consult it: its answer is
// always flat (TestChooseMergeModeIsFlatForAnyWeights), the fabricator's
// default merge mode. Explanation.Table is the canonical text rendering
// shared by every surface, so EXPLAIN output is byte-identical to
// CompareModes wherever it is printed.
package planner

import (
	"errors"
	"fmt"
	"math"
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
// dominates, and depth is penalized enough that a tree prices below a chain
// for wide queries. Neither ever prices below flat — see ChooseMergeMode.
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

// CostEstimate prices one candidate plan.
type CostEstimate struct {
	Mode      topology.MergeMode
	Operators int     // operators created for this query (T taps + P + U)
	Depth     int     // merge-phase depth
	TuplesPE  float64 // expected tuples/epoch through this query's operators
	Total     float64 // weighted scalar cost
}

// String renders the estimate.
func (c CostEstimate) String() string {
	return fmt.Sprintf("%v: ops=%d depth=%d tuples/epoch=%.1f cost=%.1f", c.Mode, c.Operators, c.Depth, c.TuplesPE, c.Total)
}

// mergeShape computes the U-operator count and depth for n leaves arranged
// in the given number of rows under a merge mode, without building any
// operators. It mirrors topology.BuildMergePlan's construction.
func mergeShape(rowLens []int, mode topology.MergeMode) (unions, depth int) {
	n := 0
	for _, l := range rowLens {
		n += l
	}
	if n <= 1 {
		return 0, 0
	}
	switch mode {
	case topology.MergeFlat:
		return 1, 1
	case topology.MergeChain:
		maxRow := 0
		for _, l := range rowLens {
			if l-1 > maxRow {
				maxRow = l - 1
			}
		}
		return n - 1, maxRow + maxInt(len(rowLens)-1, 0)
	case topology.MergeTree:
		maxRow := 0
		for _, l := range rowLens {
			if d := ceilLog2(l); d > maxRow {
				maxRow = d
			}
		}
		return n - 1, maxRow + ceilLog2(len(rowLens))
	default:
		return n - 1, n - 1
	}
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	d := 0
	v := 1
	for v < n {
		v <<= 1
		d++
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// rowLengths groups a query's cell overlaps by grid row.
func rowLengths(overlaps []geom.Overlap) []int {
	counts := map[int]int{}
	minR, maxR := math.MaxInt32, math.MinInt32
	for _, ov := range overlaps {
		counts[ov.Cell.R]++
		if ov.Cell.R < minR {
			minR = ov.Cell.R
		}
		if ov.Cell.R > maxR {
			maxR = ov.Cell.R
		}
	}
	var out []int
	for r := minR; r <= maxR; r++ {
		if counts[r] > 0 {
			out = append(out, counts[r])
		}
	}
	return out
}

// EstimateQueryCost prices query q on the grid under a merge mode.
// epochLength converts the query's rate into expected tuples per epoch. The
// estimate covers the operators the query adds: one T tap per overlapped
// cell (the F-operator and higher-rate chain prefix are shared, so they are
// charged to the queries that created them), one P per partial cell, and
// the U-operators of the merge plan.
func EstimateQueryCost(grid *geom.Grid, q query.Query, mode topology.MergeMode, epochLength float64, w Weights) (CostEstimate, error) {
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
	unions, depth := mergeShape(rowLengths(overlaps), mode)
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
	est := CostEstimate{
		Mode:      mode,
		Operators: ops,
		Depth:     depth,
		TuplesPE:  tuples,
		Total:     w.PerTuple*tuples + w.PerOperator*float64(ops) + w.PerDepth*float64(depth),
	}
	return est, nil
}

// ChooseMergeMode evaluates all merge modes for the query and returns the
// cheapest estimate. Ties prefer the simpler flat plan. Under this cost model
// the result is always flat (TestChooseMergeModeIsFlatForAnyWeights says
// why); the other modes are priced for EXPLAIN and stay available to code
// that sets a merge mode by hand.
func ChooseMergeMode(grid *geom.Grid, q query.Query, epochLength float64, w Weights) (CostEstimate, error) {
	modes := []topology.MergeMode{topology.MergeFlat, topology.MergeTree, topology.MergeChain}
	var best CostEstimate
	found := false
	for _, mode := range modes {
		est, err := EstimateQueryCost(grid, q, mode, epochLength, w)
		if err != nil {
			return CostEstimate{}, err
		}
		if !found || est.Total < best.Total {
			best = est
			found = true
		}
	}
	return best, nil
}

// CompareModes returns the estimates for every mode, in flat/chain/tree
// order, for reporting.
func CompareModes(grid *geom.Grid, q query.Query, epochLength float64, w Weights) ([]CostEstimate, error) {
	modes := []topology.MergeMode{topology.MergeFlat, topology.MergeChain, topology.MergeTree}
	out := make([]CostEstimate, 0, len(modes))
	for _, mode := range modes {
		est, err := EstimateQueryCost(grid, q, mode, epochLength, w)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// Explanation is the full pricing of one query: every candidate estimate in
// CompareModes order plus the planner's choice. It backs the CrAQL EXPLAIN
// statement, the HTTP plan endpoint and cmd/craqr-plan.
type Explanation struct {
	Query     query.Query
	Estimates []CostEstimate // CompareModes order: flat, chain, tree
	Choice    CostEstimate   // the ChooseMergeMode winner
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
	// Mode is the merge topology the shared subplan was fabricated with —
	// what the query actually executes on, which may predate (and therefore
	// differ from) this explanation's fresh Choice.
	Mode topology.MergeMode
	// Refs is the number of resident queries attached to the subplan.
	Refs int
}

// Explain prices q under every merge mode and picks the winner — the
// combination of CompareModes and ChooseMergeMode every EXPLAIN surface
// serves.
func Explain(grid *geom.Grid, q query.Query, epochLength float64, w Weights) (Explanation, error) {
	ests, err := CompareModes(grid, q, epochLength, w)
	if err != nil {
		return Explanation{}, err
	}
	choice, err := ChooseMergeMode(grid, q, epochLength, w)
	if err != nil {
		return Explanation{}, err
	}
	return Explanation{Query: q, Estimates: ests, Choice: choice}, nil
}

// Table renders the explanation as text, one CostEstimate.String line per
// mode followed by the choice — and, when the engine annotated a live
// shared subplan, one trailing "shared:" line. Every EXPLAIN surface
// (CrAQL, HTTP, craqr-plan) prints this exact rendering, so the output is
// byte-identical to formatting CompareModes directly whenever Shared is
// unset.
func (ex Explanation) Table() string {
	var b strings.Builder
	for _, est := range ex.Estimates {
		b.WriteString(est.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "choice: %v (cost %.1f)\n", ex.Choice.Mode, ex.Choice.Total)
	if ex.Shared != nil {
		fmt.Fprintf(&b, "shared: refs=%d mode=%v (subplan fabricated once, fanned out per query)\n", ex.Shared.Refs, ex.Shared.Mode)
	}
	return b.String()
}
