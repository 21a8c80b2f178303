// Package incentive implements the paper's Section VI incentive extension:
// "another alternative is to offer more incentive to the mobile sensors to
// respond … we will include mechanisms to define and optimally distribute
// such incentives". Given a global incentive budget per epoch and the
// current violation pressure of each (attribute, cell) slot, the allocator
// distributes incentive so that the cells most starved of responses receive
// the most, using a greedy marginal-gain (water-filling) rule against the
// sensors' diminishing-returns response curve.
package incentive

import (
	"container/heap"
	"errors"
	"sync"

	"repro/internal/budget"
	"repro/internal/sensors"
)

// Allocator distributes a per-epoch incentive budget across slots.
type Allocator struct {
	model sensors.ResponseModel
	total float64
	step  float64

	mu       sync.Mutex
	pressure map[budget.Key]float64
	alloc    map[budget.Key]float64
}

// NewAllocator creates an allocator. total is the incentive budget per
// epoch; step is the granularity of greedy allocation (smaller step = closer
// to the continuous optimum, more iterations). The response model is the
// fleet's, used to evaluate marginal response gain.
func NewAllocator(model sensors.ResponseModel, total, step float64) (*Allocator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if total < 0 {
		return nil, errors.New("incentive: total budget must be non-negative")
	}
	if step <= 0 {
		return nil, errors.New("incentive: step must be positive")
	}
	return &Allocator{
		model:    model,
		total:    total,
		step:     step,
		pressure: make(map[budget.Key]float64),
		alloc:    make(map[budget.Key]float64),
	}, nil
}

// ObservePressure records a slot's violation pressure — its latest N_v
// percentage (0 when satisfied). Slots with zero pressure receive no
// incentive.
func (a *Allocator) ObservePressure(k budget.Key, nvPercent float64) {
	if nvPercent < 0 {
		nvPercent = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pressure[k] = nvPercent
}

// Incentive returns the last allocation for a slot; the handler's
// IncentiveFunc reads it per request.
func (a *Allocator) Incentive(k budget.Key) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alloc[k]
}

// item is a heap entry for greedy allocation.
type item struct {
	key      budget.Key
	pressure float64
	current  float64
	gain     float64
}

type gainHeap []*item

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(*item)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// marginalGain is the pressure-weighted increase in response probability
// from granting one more step of incentive to a slot at level cur.
func (a *Allocator) marginalGain(pressure, cur float64) float64 {
	return pressure * (a.model.RespondProb(cur+a.step) - a.model.RespondProb(cur))
}

// Reallocate recomputes the allocation greedily: repeatedly grant one step
// of incentive to the slot with the largest pressure-weighted marginal
// response gain until the budget is spent. Because the response curve is
// concave, this greedy rule is optimal for the separable concave objective
// Σ pressure_k · P(respond | i_k). It returns the new allocation.
func (a *Allocator) Reallocate() map[budget.Key]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	alloc := make(map[budget.Key]float64, len(a.pressure))
	h := &gainHeap{}
	for k, p := range a.pressure {
		if p <= 0 {
			continue
		}
		it := &item{key: k, pressure: p}
		it.gain = a.marginalGain(p, 0)
		*h = append(*h, it)
	}
	heap.Init(h)
	remaining := a.total
	for remaining >= a.step && h.Len() > 0 {
		it := heap.Pop(h).(*item)
		if it.gain <= 1e-15 {
			break
		}
		it.current += a.step
		alloc[it.key] = it.current
		remaining -= a.step
		it.gain = a.marginalGain(it.pressure, it.current)
		heap.Push(h, it)
	}
	a.alloc = alloc
	return cloneAlloc(alloc)
}

// UniformAllocate splits the budget equally across pressured slots — the
// naive baseline experiment E11 compares the greedy allocator against.
func (a *Allocator) UniformAllocate() map[budget.Key]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var keys []budget.Key
	for k, p := range a.pressure {
		if p > 0 {
			keys = append(keys, k)
		}
	}
	alloc := make(map[budget.Key]float64, len(keys))
	if len(keys) > 0 {
		share := a.total / float64(len(keys))
		for _, k := range keys {
			alloc[k] = share
		}
	}
	a.alloc = alloc
	return cloneAlloc(alloc)
}

func cloneAlloc(m map[budget.Key]float64) map[budget.Key]float64 {
	out := make(map[budget.Key]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
