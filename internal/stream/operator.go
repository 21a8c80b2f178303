package stream

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Processor consumes batches: the sinks a fabricated stream is delivered
// to (result stores, collectors, exporters, estimators, a Tee of them) and
// the F- and T-operators, whose Process runs their decision kernel over a
// whole batch and forwards nothing.
type Processor interface {
	Process(b Batch) error
}

// Operator is a named stream operator with measurable flow counters. PMAT
// operators implement Operator; the topology layer introspects Kind and the
// counters for invariant checks and cost accounting.
type Operator interface {
	// Name is a unique human-readable instance name.
	Name() string
	// Kind is the operator class: "F", "T", "P" or "U", the paper's four
	// PMAT operators.
	Kind() string
	// Stats returns the operator's flow counters.
	Stats() FlowStats
}

// FlowStats counts tuples crossing an operator, plus the probabilistic work
// it performed. RandomDraws counts Bernoulli draws — the unit of work the
// T-chain ordering ablation (experiment E13) measures.
type FlowStats struct {
	BatchesIn   uint64
	TuplesIn    uint64
	TuplesOut   uint64
	RandomDraws uint64
}

// flowCounters is an embeddable atomic implementation of FlowStats.
type flowCounters struct {
	batchesIn   atomic.Uint64
	tuplesIn    atomic.Uint64
	tuplesOut   atomic.Uint64
	randomDraws atomic.Uint64
}

func (c *flowCounters) snapshot() FlowStats {
	return FlowStats{
		BatchesIn:   c.batchesIn.Load(),
		TuplesIn:    c.tuplesIn.Load(),
		TuplesOut:   c.tuplesOut.Load(),
		RandomDraws: c.randomDraws.Load(),
	}
}

// Base provides naming and flow counters for operator implementations.
// Operators are not wired to each other: the fabricator's compiled epoch
// program moves positions between them and accounts each one's flow through
// the Record methods.
type Base struct {
	name string
	kind string
	flowCounters
}

// NewBase constructs the embeddable operator base.
func NewBase(name, kind string) Base { return Base{name: name, kind: kind} }

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Kind implements Operator.
func (b *Base) Kind() string { return b.kind }

// Stats implements Operator.
func (b *Base) Stats() FlowStats { return b.snapshot() }

// RecordBatchIn notes an arriving batch of n tuples — compiled execution
// accounts stage inputs from survivor counts instead of materialized
// batches.
func (b *Base) RecordBatchIn(n int) { b.RecordBatchesIn(1, n) }

// RecordBatchesIn notes several arriving batches holding n tuples between
// them — a multi-input operator's whole time slice in one update.
func (b *Base) RecordBatchesIn(batches, n int) {
	b.batchesIn.Add(uint64(batches))
	b.tuplesIn.Add(uint64(n))
}

// RecordOut notes n tuples leaving the operator: compiled execution hands
// on positions, not batches, and accounts its output here.
func (b *Base) RecordOut(n int) { b.tuplesOut.Add(uint64(n)) }

// RecordDraws notes n Bernoulli draws performed — the probabilistic work
// metric used by the operator-ordering ablation.
func (b *Base) RecordDraws(n int) { b.randomDraws.Add(uint64(n)) }

// ErrClosed is returned when a batch is pushed into a closed component.
var ErrClosed = errors.New("stream: closed")

// Collector is a sink that accumulates every tuple it receives; tests and
// experiments read the result. Collector is safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	tuples []Tuple
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Process implements Processor.
func (c *Collector) Process(b Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tuples = append(c.tuples, b.Tuples...)
	return nil
}

// Tuples returns a copy of the collected tuples.
func (c *Collector) Tuples() []Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Tuple, len(c.tuples))
	copy(out, c.tuples)
	return out
}

// Len returns the number of collected tuples.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tuples)
}

// Tee forwards each batch to all children; it is a plain fan-out Processor
// for handing one acquired stream to several sinks.
type Tee struct {
	Children []Processor
}

// Process implements Processor.
func (t *Tee) Process(b Batch) error {
	for _, c := range t.Children {
		if err := c.Process(b); err != nil {
			return err
		}
	}
	return nil
}
