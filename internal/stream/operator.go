package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Processor consumes batches. Operators, sinks and whole sub-graphs all
// satisfy Processor, so graphs compose.
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

func (c *flowCounters) recordIn(b Batch) {
	c.batchesIn.Add(1)
	c.tuplesIn.Add(uint64(len(b.Tuples)))
}

func (c *flowCounters) recordOut(n int) { c.tuplesOut.Add(uint64(n)) }

func (c *flowCounters) recordDraws(n int) { c.randomDraws.Add(uint64(n)) }

func (c *flowCounters) snapshot() FlowStats {
	return FlowStats{
		BatchesIn:   c.batchesIn.Load(),
		TuplesIn:    c.tuplesIn.Load(),
		TuplesOut:   c.tuplesOut.Load(),
		RandomDraws: c.randomDraws.Load(),
	}
}

// Base provides naming, counters and downstream fan-out for operator
// implementations. Embed it and call emit to forward output batches.
type Base struct {
	name string
	kind string
	flowCounters

	mu   sync.RWMutex
	outs []Processor
}

// NewBase constructs the embeddable operator base.
func NewBase(name, kind string) Base { return Base{name: name, kind: kind} }

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Kind implements Operator.
func (b *Base) Kind() string { return b.kind }

// Stats implements Operator.
func (b *Base) Stats() FlowStats { return b.snapshot() }

// RecordIn notes an arriving batch in the flow counters. Operator
// implementations call it at the top of Process.
func (b *Base) RecordIn(batch Batch) { b.recordIn(batch) }

// RecordBatchIn notes an arriving batch of n tuples without a Batch value —
// compiled execution accounts stage inputs from survivor counts instead of
// materialized batches.
func (b *Base) RecordBatchIn(n int) { b.RecordBatchesIn(1, n) }

// RecordBatchesIn notes several arriving batches holding n tuples between
// them — a multi-input operator's whole time slice in one update.
func (b *Base) RecordBatchesIn(batches, n int) {
	b.batchesIn.Add(uint64(batches))
	b.tuplesIn.Add(uint64(n))
}

// RecordOut notes n tuples leaving outside of Emit: compiled execution
// hands on positions, not batches, and accounts its output here.
func (b *Base) RecordOut(n int) { b.recordOut(n) }

// RecordDraws notes n Bernoulli draws performed — the probabilistic work
// metric used by the operator-ordering ablation.
func (b *Base) RecordDraws(n int) { b.recordDraws(n) }

// AddDownstream connects a consumer for this operator's output.
func (b *Base) AddDownstream(p Processor) {
	if p == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.outs = append(b.outs, p)
}

// Emit forwards an output batch to every downstream, recording flow. The
// first downstream error aborts and is returned wrapped with the operator
// name.
func (b *Base) Emit(batch Batch) error {
	b.recordOut(len(batch.Tuples))
	b.mu.RLock()
	outs := b.outs
	b.mu.RUnlock()
	for _, out := range outs {
		if err := out.Process(batch); err != nil {
			return fmt.Errorf("%s: downstream: %w", b.name, err)
		}
	}
	return nil
}

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

// Reset discards collected state.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tuples = nil
}

// Counter is a sink that only counts tuples, for benchmarks that must not
// allocate.
type Counter struct {
	n atomic.Uint64
}

// Process implements Processor.
func (c *Counter) Process(b Batch) error {
	c.n.Add(uint64(len(b.Tuples)))
	return nil
}

// N returns the count of tuples seen.
func (c *Counter) N() uint64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Tee forwards each batch to all children; it is a plain fan-out Processor
// for wiring graphs outside the operator topology.
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
