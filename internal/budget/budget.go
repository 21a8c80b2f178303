// Package budget implements the paper's budget-tuning feedback loop. The
// budget β⟨j⟩(q,r) is the number of acquisition requests per attribute and
// per grid cell that the request/response handler may send in a given
// duration. After every batch, the F-operators report the percent rate
// violation N_v; when N_v exceeds a user-defined threshold the budget is
// increased by Δβ, otherwise decreased by Δβ, and when the budget saturates
// at its limit the query is flagged infeasible ("the user is requested to
// either accept the feasible rate or pay more").
//
// The Controller is used twice by the service runtime (see DESIGN.md,
// "Planning and adaptivity"):
//
//   - acquisition tuning — β is a request budget the handler spends, raised
//     under violations so starved cells acquire more data;
//   - adaptive rate retuning — a second per-session controller observes the
//     same N_v feedback, and RateScale maps its β to the (0,1] factor the
//     topology layer applies to a starved cell's F target and T-operator
//     rates (Fabricator.Retune), so a long-running query converges to its
//     feasible rate instead of alarming at a static one.
package budget

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/geom"
)

// Key identifies a budget slot: attribute × grid cell.
type Key struct {
	Attr string
	Cell geom.CellID
}

// String renders the key.
func (k Key) String() string { return fmt.Sprintf("%s@%v", k.Attr, k.Cell) }

// Config parameterizes the controller.
type Config struct {
	// Initial is the starting budget for newly registered slots.
	Initial float64
	// Delta is Δβ, the additive adjustment per observation.
	Delta float64
	// Min is the smallest allowed budget (requests per epoch).
	Min float64
	// Max is the budget cap; saturating at Max with violations still above
	// threshold marks the slot infeasible.
	Max float64
	// ViolationThreshold is the N_v percentage above which the budget is
	// raised (e.g. 5 means 5%).
	ViolationThreshold float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Initial <= 0 {
		return errors.New("budget: Initial must be positive")
	}
	if c.Delta <= 0 {
		return errors.New("budget: Delta must be positive")
	}
	if c.Min <= 0 || c.Min > c.Initial {
		return errors.New("budget: need 0 < Min <= Initial")
	}
	if c.Max < c.Initial {
		return errors.New("budget: need Max >= Initial")
	}
	if c.ViolationThreshold < 0 || c.ViolationThreshold > 100 {
		return errors.New("budget: ViolationThreshold must be a percentage in [0,100]")
	}
	return nil
}

// slot is the per-key controller state.
type slot struct {
	beta        float64
	infeasible  bool
	adjustments int
	lastNv      float64
}

// Controller maintains budgets for every registered (attribute, cell) slot
// and adjusts them from violation feedback. It is safe for concurrent use.
type Controller struct {
	cfg Config

	mu    sync.Mutex
	slots map[Key]*slot
}

// NewController creates a controller with the given configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, slots: make(map[Key]*slot)}, nil
}

// Register creates a slot at the initial budget; registering an existing
// slot is a no-op.
func (c *Controller) Register(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.slots[k]; !ok {
		c.slots[k] = &slot{beta: c.cfg.Initial}
	}
}

// Unregister removes a slot (query deletion emptied the cell).
func (c *Controller) Unregister(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.slots, k)
}

// Retain unregisters every slot live does not hold.
func (c *Controller) Retain(live map[Key]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.slots {
		if !live[k] {
			delete(c.slots, k)
		}
	}
}

// Observe feeds one rate-violation measurement for the slot and applies the
// paper's rule: raise β by Δβ when the violation exceeds
// Config.ViolationThreshold, lower it otherwise; clamp to [Min, Max] and
// flag infeasibility at the cap. It returns the updated budget. Observing
// an unregistered slot registers it first (at Initial, then adjusts).
//
// Units: nvPercent is N_v as a percentage in [0, 100] — the fraction of a
// batch's tuples whose Eq. (3) retaining probability exceeded one and was
// clamped (pmat.ViolationReport.Percent), with 100 meaning an empty or
// maximally starved batch. It is compared against ViolationThreshold, which
// is in the same percent units (e.g. 10 = raise β once more than 10% of a
// batch violates). Values outside [0, 100] are not rejected but have no
// extra meaning: anything above the threshold raises β exactly once.
//
// The retune curve is therefore a ±Δβ staircase clamped to [Min, Max]; the
// Infeasible flag is set the moment a raise saturates at Max (violations
// persist at the cap) and cleared by the first below-threshold observation.
// TestObserveRetuneCurve pins this trajectory.
func (c *Controller) Observe(k Key, nvPercent float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.slots[k]
	if !ok {
		s = &slot{beta: c.cfg.Initial}
		c.slots[k] = s
	}
	s.lastNv = nvPercent
	s.adjustments++
	if nvPercent > c.cfg.ViolationThreshold {
		s.beta += c.cfg.Delta
		if s.beta >= c.cfg.Max {
			s.beta = c.cfg.Max
			// Cannot increase further while violations persist: the user
			// must accept the feasible rate or pay more.
			s.infeasible = true
		}
	} else {
		s.beta -= c.cfg.Delta
		if s.beta < c.cfg.Min {
			s.beta = c.cfg.Min
		}
		s.infeasible = false
	}
	return s.beta
}

// RateScale maps a slot's budget to the adaptive rate-retune factor the
// topology layer applies to the slot's pipeline: Initial/β, clamped to
// (0, 1]. A slot at its initial budget (or below — recovery epochs shrink β
// toward Min) runs at nominal rates (scale 1); every violation epoch raises
// β and therefore lowers the scale, down to the floor Initial/Max when the
// slot saturates. The boolean is false for unregistered slots.
func (c *Controller) RateScale(k Key) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.slots[k]
	if !ok {
		return 0, false
	}
	scale := c.cfg.Initial / s.beta
	if scale > 1 {
		scale = 1
	}
	return scale, true
}

// Snapshot is a point-in-time view of one slot.
type Snapshot struct {
	Key         Key
	Budget      float64
	LastNv      float64
	Adjustments int
	Infeasible  bool
}

// Snapshots returns all slots sorted by key for stable reporting.
func (c *Controller) Snapshots() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Snapshot, 0, len(c.slots))
	for k, s := range c.slots {
		out = append(out, Snapshot{Key: k, Budget: s.beta, LastNv: s.lastNv, Adjustments: s.adjustments, Infeasible: s.infeasible})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Cell.Q != b.Cell.Q {
			return a.Cell.Q < b.Cell.Q
		}
		return a.Cell.R < b.Cell.R
	})
	return out
}

// EncodeState appends every slot, in Snapshots order, to w.
func (c *Controller) EncodeState(w *codec.Writer) {
	snaps := c.Snapshots()
	w.Uvarint(uint64(len(snaps)))
	for _, s := range snaps {
		w.String(s.Key.Attr)
		w.Int(s.Key.Cell.Q)
		w.Int(s.Key.Cell.R)
		w.Float64(s.Budget)
		w.Float64(s.LastNv)
		w.Int(s.Adjustments)
		w.Bool(s.Infeasible)
	}
}

// DecodeState replaces every slot with what EncodeState wrote.
func (c *Controller) DecodeState(r *codec.Reader) {
	n := r.Count(20)
	slots := make(map[Key]*slot, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := Key{Attr: r.String()}
		k.Cell.Q, k.Cell.R = r.Int(), r.Int()
		slots[k] = &slot{beta: r.Float64(), lastNv: r.Float64(), adjustments: r.Int(), infeasible: r.Bool()}
	}
	if r.Err() != nil {
		return
	}
	c.mu.Lock()
	c.slots = slots
	c.mu.Unlock()
}

// TotalBudget returns the sum of budgets across slots — the total request
// spend per epoch, the cost metric of experiments E6 and E11.
func (c *Controller) TotalBudget() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, s := range c.slots {
		total += s.beta
	}
	return total
}
