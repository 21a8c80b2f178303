package pmat

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Thin converts a homogeneous MDPP P(λ1, R*) into P(λ2, R*) with λ2 < λ1 by
// keeping each tuple independently with probability p = λ2/λ1 — a biased
// coin toss per tuple, exactly the three-step procedure of the paper. The
// expected output rate is λ2; experiment E2 verifies this across the ratio
// sweep.
type Thin struct {
	stream.Base

	mu     sync.Mutex
	inRate float64 // λ1
	out    float64 // λ2
	rng    *stats.RNG
}

// NewThin constructs a thinning operator from rate λ1 down to λ2. It
// enforces the paper's strict inequality λ2 < λ1 (equal rates would make the
// operator the identity, which the topology layer never materializes).
func NewThin(name string, lambda1, lambda2 float64, rng *stats.RNG) (*Thin, error) {
	if err := validateThinRates(lambda1, lambda2); err != nil {
		return nil, fmt.Errorf("pmat: thin %q: %w", name, err)
	}
	if rng == nil {
		return nil, errors.New("pmat: thin requires an RNG")
	}
	return &Thin{Base: stream.NewBase(name, "T"), inRate: lambda1, out: lambda2, rng: rng}, nil
}

func validateThinRates(lambda1, lambda2 float64) error {
	if lambda1 <= 0 || lambda2 <= 0 {
		return fmt.Errorf("rates must be positive (λ1=%g, λ2=%g)", lambda1, lambda2)
	}
	if lambda2 >= lambda1 {
		return fmt.Errorf("thinning requires λ2 < λ1 (λ1=%g, λ2=%g)", lambda1, lambda2)
	}
	return nil
}

// InputRate returns λ1.
func (t *Thin) InputRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inRate
}

// OutputRate returns λ2.
func (t *Thin) OutputRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out
}

// Probability returns the per-tuple retention probability λ2/λ1.
func (t *Thin) Probability() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out / t.inRate
}

// SetRates re-parameterizes the operator; the topology layer uses this when
// merging two consecutive T-operators into one (T(λa→λb) ∘ T(λb→λc) ≡
// T(λa→λc)) and when re-chaining after query insertion or deletion.
func (t *Thin) SetRates(lambda1, lambda2 float64) error {
	if err := validateThinRates(lambda1, lambda2); err != nil {
		return fmt.Errorf("pmat: thin %q: %w", t.Name(), err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inRate, t.out = lambda1, lambda2
	return nil
}

// EncodeState appends the operator's rates and generator to w.
func (t *Thin) EncodeState(w *codec.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w.Float64(t.inRate)
	w.Float64(t.out)
	t.rng.EncodeState(w)
}

// DecodeState restores what EncodeState wrote.
func (t *Thin) DecodeState(r *codec.Reader) {
	in, out := r.Float64(), r.Float64()
	if err := validateThinRates(in, out); err != nil {
		r.Failf("thin %q: %v", t.Name(), err)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inRate, t.out = in, out
	t.rng.DecodeState(r)
}

// BeginFused locks the operator for one batch pass and returns its
// retention probability and RNG: T's kernel is one Bernoulli draw on that
// RNG per tuple that reaches the stage, in batch order, which the compiled
// epoch program (topology package) makes inline during its single walk
// down a cell's T-chain. Every BeginFused must be paired with EndFused,
// which releases the lock — one lock acquisition per stage per batch.
func (t *Thin) BeginFused() (p float64, rng *stats.RNG) {
	t.mu.Lock()
	return t.out / t.inRate, t.rng
}

// EndFused releases the fused-pass lock and records the stage's flow
// counters: tuplesIn tuples entered (one draw each), tuplesOut survived.
func (t *Thin) EndFused(tuplesIn, tuplesOut int) {
	t.mu.Unlock()
	t.RecordBatchIn(tuplesIn)
	t.RecordDraws(tuplesIn)
	t.RecordOut(tuplesOut)
}

// Process implements stream.Processor by running the kernel the compiled
// epoch program runs over the whole batch: one BeginFused, a Bernoulli draw
// per tuple, one EndFused. Survivors are counted in Stats, not forwarded.
func (t *Thin) Process(b stream.Batch) error {
	p, rng := t.BeginFused()
	kept := 0
	for range b.Tuples {
		if rng.Bernoulli(p) {
			kept++
		}
	}
	t.EndFused(len(b.Tuples), kept)
	return nil
}
