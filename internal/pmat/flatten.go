// Package pmat implements the paper's point process transformation (PMAT)
// operators — probabilistic, algebraic stream operators on multi-dimensional
// point processes:
//
//   - Flatten (F): inhomogeneous → approximately homogeneous (Eq. 3), with
//     percent-rate-violation (N_v) reporting used for budget tuning;
//   - Thin (T): rate reduction by Bernoulli retention with p = λ2/λ1;
//   - Partition (P): split a process into disjoint sub-regions at equal rate;
//   - Union (U): merge processes on adjacent regions into their union, one
//     stable sort per time slice. Production epochs order a subplan's
//     tuples in the fabricator's compiled program instead; Union merges
//     only in the operator-graph walk the program is tested against.
//
// All operators are probabilistic and approximate with provable expected
// behaviour, and each is implemented in a few lines of core logic, as the
// paper claims. Flatten obtains λ̃ by the batch MLE of Eq. (1), warm-started
// from the previous batch (package estimate), or — for the experiments that
// ablate estimation error — from a known oracle intensity.
package pmat

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/estimate"
	"repro/internal/geom"
	"repro/internal/intensity"
	"repro/internal/stats"
	"repro/internal/stream"
)

// EstimatorMode selects how Flatten obtains the conditional rate λ̃ of its
// input process.
type EstimatorMode int

const (
	// EstimatorMLE fits the paper's Eq. (1) linear model to every batch by
	// maximum likelihood (the default), warm-started at the previous batch's
	// optimum.
	EstimatorMLE EstimatorMode = iota
	// EstimatorKnown uses a caller-supplied intensity (an oracle); the
	// experiments use it to ablate estimation error.
	EstimatorKnown
)

// String names the mode.
func (m EstimatorMode) String() string {
	switch m {
	case EstimatorMLE:
		return "mle"
	case EstimatorKnown:
		return "known"
	default:
		return fmt.Sprintf("EstimatorMode(%d)", int(m))
	}
}

// FlattenConfig parameterizes a Flatten operator.
type FlattenConfig struct {
	// TargetRate is λ̄, the desired homogeneous output rate per unit
	// area-time.
	TargetRate float64
	// Mode selects the λ̃ estimator (default EstimatorMLE).
	Mode EstimatorMode
	// Known is the oracle intensity for EstimatorKnown.
	Known intensity.Func
}

// minBatchForFit is the smallest batch the MLE is run on; smaller batches
// are flattened on the homogeneous estimate.
const minBatchForFit = 8

// ViolationReport captures the rate-violation statistics of one batch: the
// paper's N_v, the percentage of tuples whose retaining probability
// exceeded one and had to be rounded down. Rising N_v means the batch does
// not contain enough tuples to fabricate a process at rate λ̄.
type ViolationReport struct {
	Batch      int     // batch sequence number
	N          int     // batch size
	Violations int     // tuples with p_i > 1
	Percent    float64 // N_v: 100·Violations/N
	TargetRate float64 // λ̄ requested
	OutputRate float64 // measured output rate of this batch
	// FitIterations is the Newton iterations this batch's MLE took (0 when
	// no fit ran: another estimator mode, or a batch below minBatchForFit)
	// and FitNotConverged whether a fit ran and did not converge — the batch
	// was flattened on a truncated or homogeneous-fallback estimate.
	FitIterations   int
	FitNotConverged bool
}

// Flatten converts an inhomogeneous MDPP P̃(λ̃, R*) into an approximately
// homogeneous process P(λ̄, R*). For each tuple in a batch it computes the
// retaining probability of Eq. (3),
//
//	p_i = λ̄_count / (λ̃(t_i, x_i, y_i; θ) · λc),   λc = Σ_i 1/λ̃(t_i,x_i,y_i;θ),
//
// where λ̄_count = λ̄ · vol(batch window) converts the user-facing rate into
// the per-batch target count (see DESIGN.md, "Interpretation note"), clamps
// violations at one, draws a Bernoulli per tuple, and forwards survivors.
// Flatten is the only operator able to make a process homogeneous, so the
// topology layer always places it first.
type Flatten struct {
	stream.Base
	cfg FlattenConfig

	mu       sync.Mutex
	rng      *stats.RNG
	batchSeq int
	last     ViolationReport
	// reports retains the most recent maxReports batch reports as a ring
	// (reportHead is the oldest entry once full); the history is observable
	// through OnReport. Nothing reads the ring: it stays because snapshot
	// version 4 carries it and restore's byte-identity self-check re-encodes
	// it, and goes with the next snapshot version.
	reports    []ViolationReport
	reportHead int
	// onReport, when set, is invoked after each batch with its violation
	// report; the budget controller subscribes here.
	onReport func(ViolationReport)
	// warm starts the next batch's MLE at this batch's optimum. It is kept
	// in the coordinates of the window it was fitted on (warmWindow), so it
	// means the same rate profile on the next epoch's window however far the
	// session clock has run.
	warm       estimate.Centred
	warmWindow geom.Window
	hasWarm    bool
	// fitPasses counts the passes the MLE fits made over their batches; read
	// by tests that pin the fit's cost.
	fitPasses int
}

// NewFlatten constructs a Flatten operator.
func NewFlatten(name string, cfg FlattenConfig, rng *stats.RNG) (*Flatten, error) {
	if cfg.TargetRate <= 0 || math.IsNaN(cfg.TargetRate) {
		return nil, fmt.Errorf("pmat: flatten %q: target rate must be positive, got %g", name, cfg.TargetRate)
	}
	if cfg.Mode == EstimatorKnown && cfg.Known == nil {
		return nil, fmt.Errorf("pmat: flatten %q: EstimatorKnown requires a Known intensity", name)
	}
	if rng == nil {
		return nil, errors.New("pmat: flatten requires an RNG")
	}
	return &Flatten{Base: stream.NewBase(name, "F"), cfg: cfg, rng: rng}, nil
}

// TargetRate returns λ̄.
func (f *Flatten) TargetRate() float64 { return f.cfg.TargetRate }

// SetTargetRate updates λ̄; the topology layer raises the F-operator's
// output rate when a newly inserted query needs more than the current chain
// head provides.
func (f *Flatten) SetTargetRate(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("pmat: flatten %q: target rate must be positive, got %g", f.Name(), rate)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.TargetRate = rate
	return nil
}

// OnReport registers a callback invoked with each batch's violation report.
func (f *Flatten) OnReport(fn func(ViolationReport)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onReport = fn
}

// LastReport returns the most recent batch's violation report.
func (f *Flatten) LastReport() ViolationReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// maxReports bounds the retained per-batch violation reports.
const maxReports = 512

// EncodeState appends everything a later batch depends on to w: the
// target rate, the generator, the batch sequence, the latest and retained
// reports (oldest first) and the warm start. Flow counters are diagnostics
// and are not kept.
func (f *Flatten) EncodeState(w *codec.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.Float64(f.cfg.TargetRate)
	f.rng.EncodeState(w)
	w.Int(f.batchSeq)
	encodeReport(w, f.last)
	w.Uvarint(uint64(len(f.reports)))
	for i := range f.reports {
		encodeReport(w, f.reports[(f.reportHead+i)%len(f.reports)])
	}
	w.Bool(f.hasWarm)
	for _, v := range f.warm {
		w.Float64(v)
	}
	geom.EncodeWindow(w, f.warmWindow)
}

// DecodeState restores what EncodeState wrote into an operator built with
// the same configuration.
func (f *Flatten) DecodeState(r *codec.Reader) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rate := r.Float64(); rate > 0 {
		f.cfg.TargetRate = rate
	} else {
		r.Failf("flatten %q: target rate %g", f.Name(), rate)
	}
	f.rng.DecodeState(r)
	f.batchSeq = r.Int()
	f.last = decodeReport(r)
	n := r.Count(reportMinBytes)
	if n > maxReports {
		r.Failf("flatten %q: %d retained reports", f.Name(), n)
		return
	}
	f.reports, f.reportHead = make([]ViolationReport, n), 0
	for i := range f.reports {
		f.reports[i] = decodeReport(r)
	}
	f.hasWarm = r.Bool()
	for i := range f.warm {
		f.warm[i] = r.Float64()
	}
	f.warmWindow = geom.DecodeWindow(r)
}

// reportMinBytes is the smallest encoding of a ViolationReport.
const reportMinBytes = 5*1 + 3*8

func encodeReport(w *codec.Writer, rep ViolationReport) {
	w.Int(rep.Batch)
	w.Int(rep.N)
	w.Int(rep.Violations)
	w.Float64s(rep.Percent, rep.TargetRate, rep.OutputRate)
	w.Int(rep.FitIterations)
	w.Bool(rep.FitNotConverged)
}

func decodeReport(r *codec.Reader) ViolationReport {
	return ViolationReport{
		Batch: r.Int(), N: r.Int(), Violations: r.Int(),
		Percent: r.Float64(), TargetRate: r.Float64(), OutputRate: r.Float64(),
		FitIterations: r.Int(), FitNotConverged: r.Bool(),
	}
}

// estimateIntensity returns the λ̃ estimate for the batch under the
// configured mode, or — when the estimate is a fit or a constant, whose
// rates at the tuples are known without evaluating anything — nil, having
// filled inv (len b.Len()) with 1/λ̃ at every tuple and returning their sum,
// Eq. (3)'s λc. report receives the fit's diagnostics. Called with f.mu
// held.
func (f *Flatten) estimateIntensity(b stream.Batch, inv []float64, report *ViolationReport) (intensity.Func, float64) {
	switch f.cfg.Mode {
	case EstimatorKnown:
		return f.cfg.Known, 0
	default: // EstimatorMLE
		if b.Len() >= minBatchForFit {
			var warm *estimate.Centred
			if f.hasWarm {
				warm = &f.warm
			}
			// Only a converged optimum seeds the next batch: a truncated solve
			// on degenerate data (e.g. an unbounded likelihood) would chase
			// the divergence further every epoch, and after a failed fit the
			// carried optimum belongs to neither batch.
			f.hasWarm = false
			fit, err := estimate.FitBatch(b.Tuples, b.Window, warm, inv)
			if err == nil {
				f.fitPasses += fit.Passes
				report.FitIterations, report.FitNotConverged = fit.Iterations, !fit.Converged
				if fit.Converged {
					f.warm, f.warmWindow, f.hasWarm = fit.Centred, b.Window, true
				}
				return nil, fit.LambdaC
			}
			report.FitNotConverged = true
		}
		r := 1 / math.Max(b.MeasuredRate(), intensity.DefaultFloor)
		for i := range inv {
			inv[i] = r
		}
		return nil, float64(len(inv)) * r
	}
}

// decide runs Eq. (3) for one batch and writes each tuple's survival into
// keep (len ≥ b.Len()), returning the survivor count. Estimation, violation
// accounting and report plumbing all happen here, so Process and the
// compiled kernel (topology package, via ProcessFused) share the decision
// byte-for-byte. f.mu is held for the estimator's state and for the
// Bernoulli draws, nothing else — retaining probabilities are computed
// between the two and survivors are materialized by the caller after the
// lock is released.
func (f *Flatten) decide(b stream.Batch, keep []bool) (int, error) {
	if err := b.Window.Validate(); err != nil {
		return 0, fmt.Errorf("pmat: flatten %q: %w", f.Name(), err)
	}
	f.RecordIn(b)
	n := b.Len()
	// The scratch holds 1/λ̃_i, then the per-tuple retaining probabilities, so
	// the second critical section below is nothing but RNG draws.
	rbuf := stream.BorrowFloats(n)
	defer rbuf.Release()
	probs := rbuf.Vals
	f.mu.Lock()
	f.batchSeq++
	report := ViolationReport{Batch: f.batchSeq, N: n, TargetRate: f.cfg.TargetRate}
	lam, lambdaC := f.estimateIntensity(b, probs, &report)
	f.mu.Unlock()

	kept := 0
	if n == 0 {
		// An empty batch cannot possibly fabricate a process at rate λ̄: a
		// starved cell must look maximally violating so budget tuning reacts,
		// even though Eq. (3) is undefined without tuples.
		report.Percent = 100
	} else {
		if lam != nil {
			// λc = Σ 1/λ̃_i (constant over the batch).
			EvalInto(lam, b.Tuples, probs)
			for i, r := range probs {
				if r < intensity.DefaultFloor {
					r = intensity.DefaultFloor
				}
				probs[i] = 1 / r
				lambdaC += probs[i]
			}
		}
		// Eq. (3): p_i = λ̄_count / (λ̃_i · λc).
		scale := report.TargetRate * b.Window.Volume() / lambdaC
		for i, r := range probs {
			p := scale * r
			if p > 1 {
				report.Violations++
				p = 1
			}
			probs[i] = p
		}
		f.RecordDraws(n)
		f.mu.Lock()
		for i, p := range probs {
			k := f.rng.Bernoulli(p)
			keep[i] = k
			if k {
				kept++
			}
		}
		f.mu.Unlock()
		report.Percent = 100 * float64(report.Violations) / float64(n)
	}
	if vol := b.Window.Volume(); vol > 0 {
		report.OutputRate = float64(kept) / vol
	}

	f.mu.Lock()
	f.last = report
	if len(f.reports) < maxReports {
		f.reports = append(f.reports, report)
	} else {
		f.reports[f.reportHead] = report
		f.reportHead = (f.reportHead + 1) % maxReports
	}
	cb := f.onReport
	f.mu.Unlock()
	if cb != nil {
		cb(report)
	}
	return kept, nil
}

// ProcessFused runs the flatten decision for one batch without materializing
// or emitting an output batch: keep (len ≥ b.Len()) receives each tuple's
// survival and the survivor count is returned. Estimation, reports and flow
// counters match Process exactly; the caller owns downstream delivery of the
// survivors.
func (f *Flatten) ProcessFused(b stream.Batch, keep []bool) (int, error) {
	kept, err := f.decide(b, keep)
	if err != nil {
		return kept, err
	}
	f.RecordOut(kept)
	return kept, nil
}

// Process implements stream.Processor: Eq. (3) with violation accounting.
// The output batch is built on a borrowed arena buffer recycled after Emit
// returns; downstream processors must not retain it (see the stream
// package's ownership rule).
func (f *Flatten) Process(b stream.Batch) error {
	kbuf := stream.BorrowBools(b.Len())
	kept, err := f.decide(b, kbuf.Vals)
	if err != nil {
		kbuf.Release()
		return err
	}
	buf := stream.BorrowTuples(kept)
	for i, tp := range b.Tuples {
		if kbuf.Vals[i] {
			buf.Tuples = append(buf.Tuples, tp)
		}
	}
	kbuf.Release()
	err = f.Emit(stream.Batch{Attr: b.Attr, Window: b.Window, Tuples: buf.Tuples})
	buf.Release()
	return err
}
