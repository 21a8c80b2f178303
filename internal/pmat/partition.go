package pmat

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/stream"
)

// Port is one output branch of a multi-output operator. Downstream
// processors subscribe to a port; the owning operator pushes the branch's
// share of each batch through it.
type Port struct {
	label  string
	region geom.Rect

	mu   sync.RWMutex
	outs []stream.Processor
}

// AddDownstream connects a consumer to the port.
func (p *Port) AddDownstream(proc stream.Processor) {
	if proc == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outs = append(p.outs, proc)
}

func (p *Port) push(b stream.Batch) error {
	p.mu.RLock()
	outs := p.outs
	p.mu.RUnlock()
	for _, out := range outs {
		if err := out.Process(b); err != nil {
			return err
		}
	}
	return nil
}

// Partition splits a point process P(λ, R*) into processes of the same rate
// λ on pairwise-disjoint sub-regions R*₁, R*₂, … ⊂ R*. It is implemented
// exactly as the paper describes: check which region an incoming tuple
// belongs to and transmit it to the appropriate output branch. Tuples that
// fall in no branch (the query covers only part of the cell) are dropped;
// the paper's two-way operator generalizes to multiple regions, which this
// implementation supports directly.
type Partition struct {
	stream.Base
	region geom.Rect

	mu    sync.RWMutex
	ports []*Port
}

// NewPartition constructs a partition operator over the input region R*.
func NewPartition(name string, region geom.Rect) (*Partition, error) {
	if region.IsEmpty() {
		return nil, fmt.Errorf("pmat: partition %q: empty input region", name)
	}
	return &Partition{Base: stream.NewBase(name, "P"), region: region}, nil
}

// AddBranch adds an output branch for sub. The sub-region must lie within
// the input region and be disjoint from every existing branch, preserving
// the paper's R*₁ ∩ R*₂ = ∅ invariant.
func (p *Partition) AddBranch(label string, sub geom.Rect) (*Port, error) {
	if sub.IsEmpty() {
		return nil, fmt.Errorf("pmat: partition %q: branch %q has empty region", p.Name(), label)
	}
	if !p.region.ContainsRect(sub) {
		return nil, fmt.Errorf("pmat: partition %q: branch %q region %v not contained in input %v", p.Name(), label, sub, p.region)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, port := range p.ports {
		if port.region.Overlaps(sub) {
			return nil, fmt.Errorf("pmat: partition %q: branch %q region %v overlaps existing branch %q (%v)", p.Name(), label, sub, port.label, port.region)
		}
	}
	port := &Port{label: label, region: sub}
	p.ports = append(p.ports, port)
	return port, nil
}

// Process implements stream.Processor: route each tuple to the branch whose
// region contains it. Branch batches are built on borrowed arena buffers
// recycled after the pushes return; downstream processors must not retain
// them (see the stream package's ownership rule).
func (p *Partition) Process(b stream.Batch) error {
	p.RecordIn(b)
	p.mu.RLock()
	ports := p.ports
	p.mu.RUnlock()
	if len(ports) == 0 {
		return nil
	}
	outs := make([]stream.Batch, len(ports))
	bufs := make([]*stream.TupleBuffer, len(ports))
	defer func() {
		for _, buf := range bufs {
			buf.Release()
		}
	}()
	for i, port := range ports {
		win, ok := b.Window.Rect.Intersect(port.region)
		if !ok {
			win = port.region // branch region disjoint from batch window: empty share
		}
		outs[i] = stream.Batch{Attr: b.Attr, Window: b.Window.WithRect(win)}
		bufs[i] = stream.BorrowTuples(0)
	}
	for _, tp := range b.Tuples {
		pt := geom.Point{X: tp.X, Y: tp.Y}
		for i, port := range ports {
			if port.region.Contains(pt) {
				bufs[i].Tuples = append(bufs[i].Tuples, tp)
				break // branches are disjoint; at most one match
			}
		}
	}
	forwarded := 0
	for i, port := range ports {
		outs[i].Tuples = bufs[i].Tuples
		forwarded += len(outs[i].Tuples)
		if err := port.push(outs[i]); err != nil {
			return fmt.Errorf("pmat: partition %q: branch %q: %w", p.Name(), port.label, err)
		}
	}
	p.RecordOut(forwarded)
	return nil
}
