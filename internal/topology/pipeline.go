// Package topology implements CrAQR's crowdsensed stream fabricator: the
// per-grid-cell execution topologies of PMAT operators, the hashmap from
// grid cells to topologies, and the query insertion/deletion rules of the
// paper's Section V:
//
//   - the first operator in every cell topology is the F-operator (only it
//     can make an inhomogeneous MDPP homogeneous);
//   - T-operators are kept sorted in descending rate order, with the highest
//     rate closest to the F-operator;
//   - two consecutive T-operators with no branching point between them are
//     merged into a single T-operator;
//   - the F-operator's output rate is raised above the first T-operator's
//     output rate when a new query needs it;
//   - P-operators are added after the T-operators for queries that cover
//     only part of a cell;
//   - the merge phase unions per-cell streams with U-operators into the
//     final fabricated stream;
//   - deletion removes a query's streams from right to left until a
//     branching point, merging any T-operators left consecutive.
//
// Queries whose normal forms match share one fabricated subplan and one
// result ring. The operators are the plan's nodes, not a wired graph: every
// epoch runs as the attribute's compiled position program (program.go),
// which reads their rates, generators and estimators and keeps their flow
// counters; the only setting is the epoch worker count (Config). The
// operator-graph walk the program is held to lives in this package's tests,
// as does the per-query control arm sharing is held to.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// rateEpsilon is the tolerance under which two query rates are considered
// equal and share a T-operator.
const rateEpsilon = 1e-9

// Key identifies one cell topology: the paper's hashmap is keyed by grid
// cell; because streams are per attribute, the key also carries the
// attribute.
type Key struct {
	Cell geom.CellID
	Attr string
}

// String renders the key.
func (k Key) String() string { return fmt.Sprintf("%v/%s", k.Cell, k.Attr) }

// rngKey hashes the key (FNV-1a) into the stable identifier used to fork
// the per-cell RNG stream, so a cell's randomness depends only on the
// engine seed and the key — not on insertion order or worker scheduling.
func (k Key) rngKey() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(int64(k.Cell.Q)))
	mix(uint64(int64(k.Cell.R)))
	for i := 0; i < len(k.Attr); i++ {
		mix(uint64(k.Attr[i]))
	}
	return h
}

// tap is one subplan's subscription at a rate node: either the whole cell
// or, for a partial overlap, the share a P-operator clips out of it.
type tap struct {
	queryID   string
	region    geom.Rect // the sub-region delivered to the subplan
	partition *pmat.Partition
}

// rateNode is one T-operator level of the descending chain, together with
// the query taps subscribed at its output rate.
type rateNode struct {
	rate float64
	thin *pmat.Thin
	taps []*tap
}

// CellPipeline is the execution topology of one (cell, attribute) key:
// F → T₁ → T₂ → … with query taps branching off the T-operators.
type CellPipeline struct {
	key      Key
	cellRect geom.Rect
	flatten  *pmat.Flatten
	nodes    []*rateNode // sorted by rate, descending
	rng      *stats.RNG
	nameSeq  int

	// nominalTarget is the unscaled F-operator target rate implied by the
	// subscribed queries (headroom × head rate); the operator itself runs at
	// scale × nominalTarget.
	nominalTarget float64
	// scale is the adaptive rate-retune factor in (0,1] applied uniformly to
	// the F target and every T-operator's rate pair (Retune). node.rate
	// values stay nominal so query-rate matching is scale-invariant.
	scale float64
}

// headroom is the multiplicative margin of the F-operator's output rate
// over the first T-operator's rate.
const headroom = 1.2

// NewCellPipeline creates the topology for a key, with the F-operator — an
// MLE-mode flatten — installed and no queries yet.
func NewCellPipeline(key Key, cellRect geom.Rect, rng *stats.RNG) (*CellPipeline, error) {
	if cellRect.IsEmpty() {
		return nil, fmt.Errorf("topology: pipeline %v: empty cell rect", key)
	}
	if rng == nil {
		return nil, errors.New("topology: pipeline requires an RNG")
	}
	// The target rate is a placeholder, raised on the first insertion.
	const target = 1
	f, err := pmat.NewFlatten(fmt.Sprintf("%v/F", key), pmat.FlattenConfig{TargetRate: target}, rng.Fork())
	if err != nil {
		return nil, err
	}
	return &CellPipeline{key: key, cellRect: cellRect, flatten: f, rng: rng, nominalTarget: target, scale: 1}, nil
}

// CellRect returns the grid cell's rectangle.
func (p *CellPipeline) CellRect() geom.Rect { return p.cellRect }

// Empty reports whether no queries are subscribed.
func (p *CellPipeline) Empty() bool { return len(p.nodes) == 0 }

func (p *CellPipeline) nextName(kind string) string {
	p.nameSeq++
	return fmt.Sprintf("%v/%s%d", p.key, kind, p.nameSeq)
}

// AddTap subscribes a query at its rate: it finds or creates the T-operator
// for rate q.Rate (keeping the chain sorted descending and the F output
// above the head) and taps it — the whole cell when the query covers it,
// through a P-operator partitioning out the overlap otherwise.
func (p *CellPipeline) AddTap(q query.Query, overlap geom.Rect) error {
	if q.Rate <= 0 {
		return fmt.Errorf("topology: pipeline %v: query %s: rate must be positive", p.key, q.ID)
	}
	if overlap.IsEmpty() || !p.cellRect.ContainsRect(overlap) {
		return fmt.Errorf("topology: pipeline %v: query %s: overlap %v not inside cell %v", p.key, q.ID, overlap, p.cellRect)
	}
	for _, n := range p.nodes {
		for _, t := range n.taps {
			if t.queryID == q.ID {
				return fmt.Errorf("topology: pipeline %v: query %s already subscribed", p.key, q.ID)
			}
		}
	}
	node, err := p.ensureNode(q.Rate)
	if err != nil {
		return err
	}
	return p.tapNode(node, q.ID, overlap)
}

// tapNode taps a rate node for a subplan: the whole cell when overlap is the
// cell, through a P-operator partitioning out the overlap otherwise (paper:
// "P-operators are required only for Q3⟨2⟩").
func (p *CellPipeline) tapNode(node *rateNode, queryID string, overlap geom.Rect) error {
	t := &tap{queryID: queryID, region: overlap}
	if !overlap.Equal(p.cellRect) {
		part, err := pmat.NewPartition(p.nextName("P"), p.cellRect)
		if err != nil {
			return err
		}
		t.partition = part
	}
	node.taps = append(node.taps, t)
	return nil
}

// ensureNode returns the rate node for rate, creating it at its place in the
// descending chain if absent. It applies the paper's insertion rules: keep
// T-operators sorted descending, never create two identical-rate
// T-operators, and raise the F-operator's output above the head rate.
func (p *CellPipeline) ensureNode(rate float64) (*rateNode, error) {
	// Existing node with (approximately) the same rate?
	for _, n := range p.nodes {
		if math.Abs(n.rate-rate) <= rateEpsilon*math.Max(1, rate) {
			return n, nil
		}
	}
	// Find insertion position in the descending order.
	pos := sort.Search(len(p.nodes), func(i int) bool { return p.nodes[i].rate < rate })
	if pos == 0 {
		// New head: make sure F's nominal output rate exceeds the new head
		// rate; the operator runs at the scaled equivalent.
		needed := headroom * rate
		if p.nominalTarget < needed {
			p.nominalTarget = needed
			if err := p.flatten.SetTargetRate(p.scale * needed); err != nil {
				return nil, err
			}
		}
	}
	inRate := p.upstreamRate(pos)
	// Fork the T-operator's RNG keyed by its nominal output rate (unique
	// within the chain), so a rate node's stream does not depend on the order
	// queries were inserted — only (seed, cell, attr, rate) matter; retunes
	// rescale the operator without re-keying its RNG.
	thin, err := pmat.NewThin(p.nextName("T"), p.scale*inRate, p.scale*rate, p.rng.ForkKeyed(math.Float64bits(rate)))
	if err != nil {
		return nil, err
	}
	// The former occupant of pos now reads the new node's output.
	if pos < len(p.nodes) {
		next := p.nodes[pos]
		if err := next.thin.SetRates(p.scale*rate, p.scale*next.rate); err != nil {
			return nil, err
		}
	}
	node := &rateNode{rate: rate, thin: thin}
	p.nodes = slices.Insert(p.nodes, pos, node)
	return node, nil
}

// upstreamRate returns the nominal output rate feeding chain position pos;
// the operators run at scale × nominal.
func (p *CellPipeline) upstreamRate(pos int) float64 {
	if pos == 0 {
		return p.nominalTarget
	}
	return p.nodes[pos-1].rate
}

// RemoveTap unsubscribes a query, deleting its stream right-to-left: the tap
// (and its P-operator) goes; a T-operator left with no taps is removed and
// the chain re-merged (the paper's rule that two consecutive T-operators
// merge into one). It reports whether the query was subscribed.
func (p *CellPipeline) RemoveTap(queryID string) (bool, error) {
	for i, n := range p.nodes {
		for j, t := range n.taps {
			if t.queryID != queryID {
				continue
			}
			n.taps = slices.Delete(n.taps, j, j+1)
			if len(n.taps) == 0 {
				return true, p.removeNode(i)
			}
			return true, nil
		}
	}
	return false, nil
}

// removeNode deletes chain position i and re-parameterizes the downstream
// T-operator to read from its new upstream — the merge of two consecutive
// T-operators.
func (p *CellPipeline) removeNode(i int) error {
	if i+1 < len(p.nodes) {
		next := p.nodes[i+1]
		if err := next.thin.SetRates(p.scale*p.upstreamRate(i), p.scale*next.rate); err != nil {
			return err
		}
	}
	p.nodes = slices.Delete(p.nodes, i, i+1)
	return nil
}

// Retune applies the adaptive rate scale s ∈ (0,1]: the F-operator's target
// rate and every T-operator's (λ1, λ2) pair are rescaled uniformly from
// their nominal values. Uniform scaling preserves every T-operator's
// retention probability — and therefore its RNG draw sequence — while the
// rate the F-operator is held to (and reports violations against) drops to
// s × nominal, so a persistently starved cell converges to its feasible
// rate instead of alarming forever (the paper's "accept the feasible
// rate"). The compiled program reads rates live, so nothing is recompiled
// (retune_test.go holds it to the reference walk across a retune). Callers
// serialize Retune with structural mutations (the fabricator holds its write
// lock).
func (p *CellPipeline) Retune(scale float64) error {
	if math.IsNaN(scale) || scale <= 0 || scale > 1 {
		return fmt.Errorf("topology: pipeline %v: retune scale must be in (0,1], got %g", p.key, scale)
	}
	if scale == p.scale {
		return nil
	}
	p.scale = scale
	if err := p.flatten.SetTargetRate(scale * p.nominalTarget); err != nil {
		return err
	}
	prev := p.nominalTarget
	for _, n := range p.nodes {
		if err := n.thin.SetRates(scale*prev, scale*n.rate); err != nil {
			return err
		}
		prev = n.rate
	}
	return nil
}

// QueryIDs returns the ids of subscribed queries in chain order.
func (p *CellPipeline) QueryIDs() []string {
	var out []string
	for _, n := range p.nodes {
		for _, t := range n.taps {
			out = append(out, t.queryID)
		}
	}
	return out
}

// Operators returns every PMAT operator in the pipeline, F first.
func (p *CellPipeline) Operators() []stream.Operator {
	out := []stream.Operator{p.flatten}
	for _, n := range p.nodes {
		out = append(out, n.thin)
		for _, t := range n.taps {
			if t.partition != nil {
				out = append(out, t.partition)
			}
		}
	}
	return out
}

// Invariants verifies the paper's structural rules; it returns the first
// violation found, or nil. The rules checked:
//
//  1. T-operator rates strictly descend along the chain.
//  2. Each T-operator's input rate equals its upstream's output rate.
//  3. The F-operator's output rate exceeds the first T-operator's rate.
//  4. Every T-operator has at least one tap (no two consecutive T-operators
//     without a branching point — tapless nodes would have been merged).
//  5. Tap regions lie inside the cell, and a tap has a P-operator exactly
//     when its region is not the whole cell.
func (p *CellPipeline) Invariants() error {
	if math.IsNaN(p.scale) || p.scale <= 0 || p.scale > 1 {
		return fmt.Errorf("topology: pipeline %v: rate scale %g outside (0,1]", p.key, p.scale)
	}
	prevRate := p.flatten.TargetRate()
	if math.Abs(prevRate-p.scale*p.nominalTarget) > rateEpsilon*math.Max(1, prevRate) {
		return fmt.Errorf("topology: pipeline %v: F target %g is not scale %g × nominal %g", p.key, prevRate, p.scale, p.nominalTarget)
	}
	if len(p.nodes) > 0 && prevRate <= p.scale*p.nodes[0].rate {
		return fmt.Errorf("topology: pipeline %v: F output rate %g not above head T rate %g", p.key, prevRate, p.scale*p.nodes[0].rate)
	}
	for i, n := range p.nodes {
		scaled := p.scale * n.rate
		if scaled >= prevRate {
			return fmt.Errorf("topology: pipeline %v: chain not strictly descending at position %d (%g >= %g)", p.key, i, scaled, prevRate)
		}
		if math.Abs(n.thin.InputRate()-prevRate) > rateEpsilon*math.Max(1, prevRate) {
			return fmt.Errorf("topology: pipeline %v: T at position %d has input rate %g, upstream is %g", p.key, i, n.thin.InputRate(), prevRate)
		}
		if math.Abs(n.thin.OutputRate()-scaled) > rateEpsilon*math.Max(1, scaled) {
			return fmt.Errorf("topology: pipeline %v: T at position %d has output rate %g, scaled node rate is %g", p.key, i, n.thin.OutputRate(), scaled)
		}
		if len(n.taps) == 0 {
			return fmt.Errorf("topology: pipeline %v: T at position %d has no taps (consecutive T-operators must be merged)", p.key, i)
		}
		for _, t := range n.taps {
			if !p.cellRect.ContainsRect(t.region) {
				return fmt.Errorf("topology: pipeline %v: tap %s region %v escapes the cell %v", p.key, t.queryID, t.region, p.cellRect)
			}
			if (t.partition == nil) != t.region.Equal(p.cellRect) {
				return fmt.Errorf("topology: pipeline %v: tap %s over %v has P-operator %v", p.key, t.queryID, t.region, t.partition != nil)
			}
		}
		prevRate = scaled
	}
	return nil
}

// Render draws the pipeline as one ASCII line, e.g.
//
//	(2,3)/rain: F(12.0) → T(12.0→10.0)[Q1] → T(10.0→4.0)[Q2, Q3·P]
func (p *CellPipeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: F(%.3g)", p.key, p.flatten.TargetRate())
	for _, n := range p.nodes {
		fmt.Fprintf(&b, " → T(%.3g→%.3g)[", n.thin.InputRate(), n.thin.OutputRate())
		for i, t := range n.taps {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.queryID)
			if t.partition != nil {
				b.WriteString("·P")
			}
		}
		b.WriteString("]")
	}
	return b.String()
}
