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
// result ring, and every epoch runs as a compiled position program
// (program.go); the only setting is the epoch worker count (Config). The
// operator-graph walk and per-query fabrication stay as unexported control
// arms that only this package's tests select, to hold the program and
// sharing to byte identity.
package topology

import (
	"errors"
	"fmt"
	"math"
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

// tap is one query's subscription at a rate node: either the whole cell
// (direct connection) or a partition branch for a partial overlap.
type tap struct {
	queryID   string
	region    geom.Rect // the sub-region delivered to the query
	partition *pmat.Partition
	port      *pmat.Port
	sink      stream.Processor
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

// Flatten returns the pipeline's F-operator.
func (p *CellPipeline) Flatten() *pmat.Flatten { return p.flatten }

// Empty reports whether no queries are subscribed.
func (p *CellPipeline) Empty() bool { return len(p.nodes) == 0 }

func (p *CellPipeline) nextName(kind string) string {
	p.nameSeq++
	return fmt.Sprintf("%v/%s%d", p.key, kind, p.nameSeq)
}

// AddTap subscribes a query at its rate: it finds or creates the T-operator
// for rate q.Rate (keeping the chain sorted descending and the F output
// above the head), and attaches the query's sink — directly when the query
// covers the whole cell, through a P-operator partitioning out the overlap
// otherwise.
func (p *CellPipeline) AddTap(q query.Query, overlap geom.Rect, sink stream.Processor) error {
	if sink == nil {
		return fmt.Errorf("topology: pipeline %v: query %s: nil sink", p.key, q.ID)
	}
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
	return p.tapNode(node, q.ID, overlap, sink)
}

// tapNode attaches a query's sink at a rate node: directly when overlap is
// the whole cell, through a P-operator partitioning out the overlap
// otherwise.
func (p *CellPipeline) tapNode(node *rateNode, queryID string, overlap geom.Rect, sink stream.Processor) error {
	t := &tap{queryID: queryID, region: overlap, sink: sink}
	fullCell := overlap.Equal(p.cellRect)
	if fullCell {
		// The query perfectly overlaps the cell: connect directly, no
		// P-operator (paper: "P-operators are required only for Q3⟨2⟩").
		node.thin.AddDownstream(sink)
	} else {
		part, err := pmat.NewPartition(p.nextName("P"), p.cellRect)
		if err != nil {
			return err
		}
		port, err := part.AddBranch(queryID, overlap)
		if err != nil {
			return err
		}
		port.AddDownstream(sink)
		node.thin.AddDownstream(part)
		t.partition = part
		t.port = port
	}
	node.taps = append(node.taps, t)
	return nil
}

// ensureNode returns the rate node for rate, creating and splicing it into
// the descending chain if absent. It applies the paper's insertion rules:
// keep T-operators sorted descending, never create two identical-rate
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
	node := &rateNode{rate: rate, thin: thin}
	// Splice: upstream → node → former occupant of pos.
	if pos < len(p.nodes) {
		next := p.nodes[pos]
		p.upstreamDetach(pos, next.thin)
		thin.AddDownstream(next.thin)
		if err := next.thin.SetRates(p.scale*rate, p.scale*next.rate); err != nil {
			return nil, err
		}
	}
	if pos == 0 {
		p.flatten.AddDownstream(thin)
	} else {
		p.nodes[pos-1].thin.AddDownstream(thin)
	}
	p.nodes = append(p.nodes, nil)
	copy(p.nodes[pos+1:], p.nodes[pos:])
	p.nodes[pos] = node
	// If a node was inserted at the head, the old head's input rate must
	// follow (it now reads from the new node, handled above); if inserted at
	// the head the flatten target may have risen, so refresh the old head's
	// rates when pos == 0 was spliced (done via SetRates already).
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

// upstreamDetach disconnects the processor feeding position pos from next.
func (p *CellPipeline) upstreamDetach(pos int, next stream.Processor) {
	if pos == 0 {
		p.flatten.RemoveDownstream(next)
		return
	}
	p.nodes[pos-1].thin.RemoveDownstream(next)
}

// RemoveTap unsubscribes a query, deleting its stream right-to-left: the
// sink (or P-operator branch) is detached; a T-operator left with no taps
// and no branch is removed and the chain re-merged (the paper's rule that
// two consecutive T-operators merge into one). It reports whether the query
// was subscribed.
func (p *CellPipeline) RemoveTap(queryID string) (bool, error) {
	for i, n := range p.nodes {
		for j, t := range n.taps {
			if t.queryID != queryID {
				continue
			}
			if t.partition != nil {
				t.port.RemoveDownstream(t.sink)
				t.partition.RemoveBranch(t.port)
				n.thin.RemoveDownstream(t.partition)
			} else {
				n.thin.RemoveDownstream(t.sink)
			}
			n.taps = append(n.taps[:j], n.taps[j+1:]...)
			if len(n.taps) == 0 {
				if err := p.removeNode(i); err != nil {
					return true, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// removeNode deletes chain position i, reconnecting its upstream to its
// downstream and re-parameterizing the downstream T-operator — the merge of
// two consecutive T-operators.
func (p *CellPipeline) removeNode(i int) error {
	n := p.nodes[i]
	var next *rateNode
	if i+1 < len(p.nodes) {
		next = p.nodes[i+1]
	}
	if next != nil {
		n.thin.RemoveDownstream(next.thin)
	}
	p.upstreamDetach(i, n.thin)
	if next != nil {
		inRate := p.upstreamRate(i)
		if err := next.thin.SetRates(p.scale*inRate, p.scale*next.rate); err != nil {
			return err
		}
		if i == 0 {
			p.flatten.AddDownstream(next.thin)
		} else {
			p.nodes[i-1].thin.AddDownstream(next.thin)
		}
	}
	p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
	return nil
}

// Retune applies the adaptive rate scale s ∈ (0,1]: the F-operator's target
// rate and every T-operator's (λ1, λ2) pair are rescaled uniformly from
// their nominal values. Uniform scaling preserves every T-operator's
// retention probability — and therefore its RNG draw sequence — while the
// rate the F-operator is held to (and reports violations against) drops to
// s × nominal, so a persistently starved cell converges to its feasible
// rate instead of alarming forever (the paper's "accept the feasible
// rate"). Compiled execution and the graph walk both read rates live, so
// nothing is recompiled and the two stay byte-identical across a retune
// (golden test in retune_test.go). Callers serialize Retune with structural
// mutations (the fabricator holds its write lock).
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
//  5. Partition branch regions lie inside the cell and are the taps'
//     regions.
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
			if t.partition != nil && t.partition.NumBranches() != 1 {
				return fmt.Errorf("topology: pipeline %v: tap %s partition has %d branches, want 1", p.key, t.queryID, t.partition.NumBranches())
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
