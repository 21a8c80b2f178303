package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Compiled epoch execution: an epoch moves positions, not rows.
//
// The run Ingest receives for an attribute is (T, ID)-sorted — epoch assembly
// produces it that way — and the map phase's scatter is stable, so a tuple's
// position in the run is its place in the merge order. A subplan's
// U-operator outputs the subplan's surviving tuples in (T, ID) order, i.e.
// the ascending set of surviving positions inside the query's region. So the
// F/T/P/U plan of the paper's Fig. 1 runs, per attribute, as a program with
// two phases over uint32 positions:
//
//   - per cell (CellPipeline.fabricate): the F-operator's keep-mask gates one
//     walk down the T-chain with early exit, each T-operator drawing from its
//     own RNG once per tuple that reaches it, in batch order, and every
//     tuple that survives stage j has its position appended to the
//     (cell, stage) list;
//   - per distinct subplan (epochScratch.mergeSubplan): the lists of the
//     subplan's taps are concatenated in leaf order (a P tap's clip,
//     Partition.Clip, is a Rect.Contains test on the tuple at the position),
//     the already ascending lists are merged, and each surviving row is
//     materialized once, at the subplan's fan-out — straight into the
//     result ring when the fan writes only result stores.
//
// The operator objects are the plan's nodes: they hold the estimator and RNG
// state the kernel uses, and their flow counters are kept exact (a U's
// in/out is the sum over its leaves). A batch that does not ascend in
// (T, ID) — simulated sources, direct library callers — takes the same path,
// except that a subplan's surviving positions are sorted by the tuples they
// name instead of merged. A single-leaf subplan has no U-operator, and
// ordering is what U-operators do: it hands on its cell's survivors in the
// order they arrived, whatever the batch's order.
//
// The tests hold the program to a reference that runs every cell's share
// through its F-operator's kernel and then down the T-chain one materialized
// batch per stage, with naive T, P and U of its own (walk_test.go,
// program_test.go).
//
// Tie rule: tuples equal in both T and ID are ordered by position. Neither
// ingest.idSet nor the simulators produce such a pair within an attribute
// run; U-operators leave their order to input order, so the program and the
// reference agree only on tie-free input.

// epochProgram is the compiled form of one attribute's topology. It is built
// lazily by the first Ingest after a structural change and dropped wherever
// refreshOrder runs; member attach/detach on a resident subplan changes
// nothing it captured (the fan is read live), so sharing churn recompiles
// nothing.
type epochProgram struct {
	// stage[i] is the index of pipeline i's first (cell, stage) list, in
	// shard order; stage has one entry past the last pipeline.
	stage    []int32
	subplans []subplanProgram // in fabrication order
	// taps[i] lists the subplans (indices into subplans) that tap pipeline
	// i: the merge phases its kernel's completion brings one cell closer.
	taps [][]int32
}

// subplanProgram is one subplan's merge phase.
type subplanProgram struct {
	st      *queryState
	sources []source // one per plan leaf, in leaf (row-major) order
}

// source is one tap of a subplan: the stage list it reads and, for a partial
// overlap, the P-operator whose clip it applies.
type source struct {
	list int32
	part *pmat.Partition // nil when the tap takes the whole cell
	clip geom.Rect
}

// program returns attr's compiled program, compiling on first use. Called
// with f.mu held (read suffices: racing compiles of one attribute produce
// equivalent programs, and the slot itself only changes under the write
// lock).
func (f *Fabricator) program(attr string) *epochProgram {
	slot := f.programs[attr]
	if prog := slot.Load(); prog != nil {
		return prog
	}
	prog := f.compile(attr)
	slot.Store(prog)
	return prog
}

func (f *Fabricator) compile(attr string) *epochProgram {
	f.compiles.Add(1)
	pipes := f.order[attr]
	prog := &epochProgram{stage: make([]int32, len(pipes)+1), taps: make([][]int32, len(pipes))}
	for _, st := range f.distinctStates() {
		if st.q.Attr == attr {
			prog.subplans = append(prog.subplans, subplanProgram{st: st})
		}
	}
	slices.SortFunc(prog.subplans, func(a, b subplanProgram) int { return cmp.Compare(a.st.seq, b.st.seq) })
	byTap := make(map[string]int32, len(prog.subplans))
	for i := range prog.subplans {
		byTap[prog.subplans[i].st.tapID] = int32(i)
	}
	// Pipelines are walked in shard order, which is the plans' leaf order
	// (both row-major), so every subplan's sources come out leaf by leaf.
	for i, p := range pipes {
		base := prog.stage[i]
		prog.stage[i+1] = base + int32(len(p.nodes))
		for j, n := range p.nodes {
			for _, t := range n.taps {
				at := byTap[t.queryID]
				sp := &prog.subplans[at]
				sp.sources = append(sp.sources, source{list: base + int32(j), part: t.partition, clip: t.region})
				prog.taps[i] = append(prog.taps[i], at)
			}
		}
	}
	return prog
}

// ProgramStats describes the compiled epoch programs for /status.
type ProgramStats struct {
	// Subplans and Sources count the merge phases the currently compiled
	// programs run per epoch and the (cell, stage) lists those read; an
	// attribute whose topology changed since its last epoch counts nothing
	// until the next one recompiles it.
	Subplans, Sources int
	// Compiles is the lifetime number of compilations. It moves with
	// structural churn only: attaching to or detaching from a resident
	// subplan costs none.
	Compiles uint64
}

// ProgramStats snapshots the compiled programs' accounting.
func (f *Fabricator) ProgramStats() ProgramStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := ProgramStats{Compiles: f.compiles.Load()}
	for _, slot := range f.programs {
		if prog := slot.Load(); prog != nil {
			st.Subplans += len(prog.subplans)
			for i := range prog.subplans {
				st.Sources += len(prog.subplans[i].sources)
			}
		}
	}
	return st
}

// fabricate runs one batch through the cell's chain in a single pass. The
// F-operator's keep-mask is computed first (its own lock acquisitions, inside
// ProcessFused); each T-operator is then locked once for the whole pass and
// the per-tuple walk draws the stages' Bernoullis with early exit, appending
// the position of every tuple that survives stage j — pos[i] for tuple i —
// to lists[j]. Rates are read live, so a retune needs no recompilation.
func (p *CellPipeline) fabricate(b stream.Batch, pos []uint32, lists [][]uint32, sc *workerScratch) error {
	sc.keep = slices.Grow(sc.keep[:0], b.Len())[:b.Len()]
	if _, err := p.flatten.ProcessFused(b, sc.keep); err != nil {
		return err
	}
	k := len(p.nodes)
	sc.ps = slices.Grow(sc.ps[:0], k)[:k]
	sc.rngs = slices.Grow(sc.rngs[:0], k)[:k]
	sc.ins = slices.Grow(sc.ins[:0], k)[:k]
	sc.outs = slices.Grow(sc.outs[:0], k)[:k]
	for j, n := range p.nodes {
		sc.ps[j], sc.rngs[j] = n.thin.BeginFused()
		sc.ins[j] = 0
		sc.outs[j] = lists[j][:0]
	}
	for i, kept := range sc.keep {
		if !kept {
			continue
		}
		at := pos[i]
		for j := 0; j < k; j++ {
			sc.ins[j]++
			if !sc.rngs[j].Bernoulli(sc.ps[j]) {
				break
			}
			sc.outs[j] = append(sc.outs[j], at)
		}
	}
	for j, n := range p.nodes {
		n.thin.EndFused(sc.ins[j], len(sc.outs[j]))
		lists[j] = sc.outs[j]
		sc.rngs[j], sc.outs[j] = nil, nil
	}
	return nil
}

// workerScratch is what one epoch worker reuses from shard to shard, so
// neither phase allocates whatever the chains' depth or the subplans' size.
type workerScratch struct {
	// The kernel's: F's keep-mask and, per T-stage, the retention
	// probability, RNG, input count and survivor list of the pass.
	keep []bool
	ps   []float64
	rngs []*stats.RNG
	ins  []int
	outs [][]uint32
	// The merge phase's: keys holds a subplan's surviving positions, tmp is
	// the merge's ping-pong buffer, ends[i] the number of keys through leaf i.
	keys, tmp []uint32
	ends      []int32
	// rows holds materialized tuples: a cell's share of the batch while its
	// kernel runs, then the batch handed to sinks that are not result stores.
	rows []stream.Tuple
}

// epochScratch is the pooled state of one Ingest; one is borrowed per call,
// so concurrent epochs of different attributes share nothing.
type epochScratch struct {
	cellScratch
	batch stream.Batch
	pipes []*CellPipeline
	prog  *epochProgram
	// lists[prog.stage[i]+j] holds the positions that survived stage j of
	// pipeline i this epoch, in cell order.
	lists [][]uint32
	// pending[i] counts the cells subplan i still waits for; the worker whose
	// kernel brings it to zero runs the subplan's merge phase.
	pending []atomic.Int32
	workers []*workerScratch
	// The parallel path's shared state: the next cell to claim, the next
	// worker scratch to take, whether a shard failed, each shard's error
	// (cells, then subplans) and the join. work is ep.runWorker bound once,
	// when the scratch is made, so starting a worker allocates nothing.
	cursor, claimed atomic.Int64
	failed          atomic.Bool
	errs            []error
	wg              sync.WaitGroup
	work            func()
}

var epochScratchPool = sync.Pool{New: func() interface{} {
	ep := &epochScratch{}
	ep.work = ep.runWorker
	return ep
}}

func borrowEpochScratch() *epochScratch { return epochScratchPool.Get().(*epochScratch) }

func (ep *epochScratch) release() {
	ep.batch, ep.pipes, ep.prog = stream.Batch{}, nil, nil
	epochScratchPool.Put(ep)
}

// execute runs the epoch: every cell's kernel and every subplan's merge
// phase.
//
// Serially (workers ≤ 1) that is the cells in shard order, then the subplans
// in fabrication order, stopping at the first failure. In parallel, workers
// claim cells from a shared cursor, so fast workers steal the slack of slow
// ones (cells differ widely in tuple count), and a subplan's merge is run by
// the worker whose kernel completed the last cell the subplan taps — the way
// a U-operator emits when its last input delivers — so merges overlap the
// remaining cells and no worker waits on a barrier. A merge reads only the
// lists of its own cells, all complete by then, so which worker runs it, and
// when, cannot show in its output. After a failure no new cells are claimed;
// those in flight complete, with the merges they complete, so — unlike the
// serial path — a few later shards may still have executed. The error
// returned is the first in (cells, then subplans) order among those that
// ran.
func (ep *epochScratch) execute(workers int) error {
	cells, merges := len(ep.pipes), len(ep.prog.subplans)
	if workers = min(workers, cells); workers <= 1 {
		ws := ep.worker(0)
		for i := 0; i < cells; i++ {
			if err := ep.cell(i, ws); err != nil {
				return err
			}
		}
		for i := 0; i < merges; i++ {
			if err := ep.mergeSubplan(i, ws); err != nil {
				return err
			}
		}
		return nil
	}
	ep.errs = slices.Grow(ep.errs[:0], cells+merges)[:cells+merges]
	ep.cursor.Store(0)
	ep.claimed.Store(0)
	ep.failed.Store(false)
	// Every worker's scratch exists before the first starts: workers only
	// read ep.workers.
	ep.worker(workers - 1)
	ep.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go ep.work()
	}
	ep.wg.Wait()
	var first error
	for _, err := range ep.errs {
		if first == nil {
			first = err
		}
	}
	clear(ep.errs)
	return first
}

// runWorker is one worker of a parallel epoch: it takes a worker scratch of
// its own, then claims cells until none is left or a shard has failed,
// running each subplan whose last cell it completes.
func (ep *epochScratch) runWorker() {
	defer ep.wg.Done()
	ws := ep.workers[ep.claimed.Add(1)-1]
	cells := len(ep.pipes)
	for !ep.failed.Load() {
		i := int(ep.cursor.Add(1)) - 1
		if i >= cells {
			return
		}
		if err := ep.cell(i, ws); err != nil {
			ep.fail(i, err)
			return
		}
		for _, at := range ep.prog.taps[i] {
			if ep.pending[at].Add(-1) != 0 {
				continue
			}
			if err := ep.mergeSubplan(int(at), ws); err != nil {
				ep.fail(cells+int(at), err)
				return
			}
		}
	}
}

// fail records shard at's error and stops the claiming of new cells.
func (ep *epochScratch) fail(at int, err error) {
	ep.errs[at] = err
	ep.failed.Store(true)
}

// cellBatch is pipeline i's share of the epoch's batch, its rows gathered
// into ws.rows: contiguous for the F-operator's passes, and hot in the
// worker's cache by the time they run.
func (ep *epochScratch) cellBatch(i int, ws *workerScratch) stream.Batch {
	ws.rows = gatherRows(ws.rows, ep.batch.Tuples, ep.run(i))
	return stream.Batch{
		Attr:   ep.batch.Attr,
		Window: ep.batch.Window.WithRect(ep.pipes[i].CellRect()),
		Tuples: ws.rows,
	}
}

// cell runs pipeline i's share of the epoch through its kernel, leaving its
// survivors' positions in the pipeline's stage lists.
func (ep *epochScratch) cell(i int, ws *workerScratch) error {
	lo, hi := ep.prog.stage[i], ep.prog.stage[i+1]
	return ep.pipes[i].fabricate(ep.cellBatch(i, ws), ep.run(i), ep.lists[lo:hi], ws)
}

// begin sizes the epoch's stage lists to prog and arms its subplans'
// countdowns.
func (ep *epochScratch) begin(prog *epochProgram) {
	ep.prog = prog
	// Keep the lists already grown: their capacity is the point.
	n := int(prog.stage[len(prog.stage)-1])
	if n > cap(ep.lists) {
		ep.lists = append(ep.lists[:cap(ep.lists)], make([][]uint32, n-cap(ep.lists))...)
	}
	ep.lists = ep.lists[:n]
	if len(prog.subplans) > cap(ep.pending) {
		ep.pending = make([]atomic.Int32, len(prog.subplans))
	}
	ep.pending = ep.pending[:len(prog.subplans)]
	for i := range prog.subplans {
		ep.pending[i].Store(int32(len(prog.subplans[i].sources)))
	}
}

// worker returns the scratch of worker w, creating those up to it.
func (ep *epochScratch) worker(w int) *workerScratch {
	for len(ep.workers) <= w {
		ep.workers = append(ep.workers, &workerScratch{})
	}
	return ep.workers[w]
}

// mergeSubplan is subplan i's merge phase: gather the surviving positions of
// its taps, account the P- and U-operators those stand for, order the
// positions and deliver the rows they name.
func (ep *epochScratch) mergeSubplan(i int, ws *workerScratch) error {
	sp := &ep.prog.subplans[i]
	tuples := ep.batch.Tuples
	keys, ends := ws.keys[:0], ws.ends[:0]
	for _, src := range sp.sources {
		keys = appendTap(keys, ep.lists[src.list], tuples, src.part, src.clip)
		ends = append(ends, int32(len(keys)))
	}
	u := sp.st.plan.Union
	if u != nil {
		u.RecordMerged(len(keys))
	}
	switch {
	case ep.sorted:
		ws.tmp = slices.Grow(ws.tmp[:0], len(keys))[:len(keys)]
		keys, ws.tmp = mergeRuns(keys, ws.tmp, ends)
	case u != nil:
		// Positions say nothing about the order of this batch: sort the
		// survivors — them only, however large the batch — by the tuples
		// they name, ties by position.
		slices.SortFunc(keys, func(a, b uint32) int {
			if c := stream.CompareTuples(tuples[a], tuples[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	default:
		// Ordering is what U-operators do: a single-leaf plan has none and
		// hands on its cell's survivors as they arrived.
	}
	ws.keys, ws.ends = keys, ends
	b := stream.Batch{Attr: ep.batch.Attr, Window: ep.batch.Window.WithRect(sp.st.plan.Region)}
	if err := sp.st.fan.deliver(b, tuples, keys, &ws.rows); err != nil {
		return fmt.Errorf("topology: subplan %s: %w", sp.st.tapID, err)
	}
	return nil
}

// appendTap appends to keys what one tap passes on of list, a stage's
// surviving positions in tuples: all of it, or, for a partial overlap, what
// the tap's P-operator clips out of it.
func appendTap(keys, list []uint32, tuples []stream.Tuple, part *pmat.Partition, clip geom.Rect) []uint32 {
	if part == nil {
		return append(keys, list...)
	}
	return part.Clip(keys, list, tuples, clip)
}

// gatherRows returns src[pos[0]], src[pos[1]], … built on dst's storage.
func gatherRows(dst, src []stream.Tuple, pos []uint32) []stream.Tuple {
	dst = slices.Grow(dst[:0], len(pos))[:len(pos)]
	for i, at := range pos {
		dst[i] = src[at]
	}
	return dst
}

// mergeRuns orders keys — the concatenation of ascending runs, ends[i] the
// offset one past run i, empty runs allowed — by merging adjacent runs
// pairwise, ping-ponging between keys and tmp (same length). It returns the
// ordered slice and the other one; ends is consumed.
func mergeRuns(keys, tmp []uint32, ends []int32) (ordered, spare []uint32) {
	// Drop empty runs.
	m, last := 0, int32(0)
	for _, e := range ends {
		if e > last {
			ends[m], last = e, e
			m++
		}
	}
	for ends = ends[:m]; len(ends) > 1; ends = ends[:m] {
		m = 0
		lo := int32(0)
		for i := 0; i+1 < len(ends); i += 2 {
			mid, hi := ends[i], ends[i+1]
			merge2(tmp[lo:hi], keys[lo:mid], keys[mid:hi])
			ends[m], lo = hi, hi
			m++
		}
		if len(ends)%2 == 1 {
			copy(tmp[lo:], keys[lo:])
			ends[m] = ends[len(ends)-1]
			m++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// merge2 merges the ascending a and b into dst (len(a)+len(b)). Which run a
// key comes from is a coin flip to the branch predictor, so the loop body is
// written for conditional moves rather than a branch per key.
func merge2(dst, a, b []uint32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v, fromA := y, 0
		if x < y {
			v, fromA = x, 1
		}
		dst[k] = v
		i += fromA
		j += 1 - fromA
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
