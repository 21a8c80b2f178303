package topology

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Config parameterizes the fabricator.
type Config struct {
	// Workers is the size of the worker pool that executes cell pipelines
	// within an epoch; 1 forces serial execution. 0 sizes the pool to each
	// epoch: one worker per minTuplesPerWorker tuples that land in
	// materialized cells, at least one and at most runtime.GOMAXPROCS(0), so
	// a small epoch runs serially and leaves the other CPUs to the request
	// path. Because every cell pipeline draws from its own keyed RNG fork and
	// the merge phase orders tuples deterministically, serial and parallel
	// runs of the same seed produce identical fabricated streams.
	Workers int
}

// minTuplesPerWorker is the work each worker of a self-sized pool
// (Config.Workers == 0) must have: a second worker joins an epoch at 2·2048
// tuples. On 2 vCPUs a pooled 4096-tuple epoch still beats a serial one
// end to end, and a pooled 2048-tuple epoch loses to it (DESIGN.md "Shards").
const minTuplesPerWorker = 2048

// epochWorkers is the pool size of an epoch whose materialized cells hold
// tuples tuples, on procs usable CPUs: Workers when set, otherwise one
// worker per minTuplesPerWorker tuples, clamped to [1, procs].
func (c Config) epochWorkers(tuples, procs int) int {
	if c.Workers > 0 {
		return c.Workers
	}
	return max(1, min(tuples/minTuplesPerWorker, procs))
}

// Fabricator is the crowdsensed stream fabricator of Fig. 1: it owns the
// hashmap from grid cells to execution topologies, inserts and deletes
// queries per the paper's rules, runs the map phase (assign tuples to their
// cell's topology), the process phase (the per-cell PMAT chains), and the
// merge phase (U-operators assembling the final streams). Budgets, when a
// controller is attached, are registered per materialized (attribute, cell)
// slot; the engine tunes them from the F-operators' N_v reports
// (VisitLastReports).
type Fabricator struct {
	grid *geom.Grid
	cfg  Config
	rng  *stats.RNG

	// mu is held for writing by structural mutations (query insertion and
	// deletion, budget attachment) and for reading by epoch execution, so a
	// topology never changes shape under a running epoch; multiple Ingest
	// calls (for different attributes) may execute concurrently.
	mu    sync.RWMutex
	cells map[Key]*CellPipeline
	// queries is the record of live queries: each ID's stored form and the
	// subplan it rides.
	queries map[string]liveQuery
	// querySeq is the number of the last query ID assigned ("Q<n>"). A number
	// is taken once a query passes Validate and is never reused, whether the
	// insert then fails or the query is later deleted: replay depends on a
	// log's submits being renumbered exactly as they were.
	querySeq int
	budgets  *budget.Controller
	// order caches, per attribute, the pipelines in deterministic row-major
	// shard order so the epoch hot path neither rebuilds nor re-sorts the
	// shard list. Rebuilt under the write lock by every pipeline
	// materialization or drop; read lock-free by Ingest under the read lock.
	order map[string][]*CellPipeline
	// slots maps, per attribute, every grid cell (dense row-major index
	// q + r·side) to its pipeline's position in order, −1 where the cell is
	// not materialized. Rebuilt with order; it is what keeps the per-epoch
	// map phase proportional to tuples + materialized cells rather than to
	// the grid.
	slots map[string][]int32
	// attrs caches order's keys sorted — maintained alongside order so the
	// per-epoch attr walk (AppendAttrs, VisitLastReports) never sorts.
	attrs []string
	// shared indexes live subplans by canonical CrAQL key
	// (craql.CanonicalKey), so a submit whose normal form matches a
	// resident query attaches to the existing subplan instead of
	// fabricating a new one (see DESIGN.md, "Multi-query sharing"). It is
	// nil only on the per-query control arm — every query its own subplan
	// and result ring — which topology's tests compare sharing against.
	shared map[string]*queryState
	// sharedAttaches counts inserts absorbed by an existing subplan.
	sharedAttaches uint64
	// programs holds, per attribute with pipelines, the slot of its compiled
	// epoch program (program.go). refreshOrder replaces the slot — that is
	// the invalidation — and the next Ingest fills it, under the read lock.
	programs map[string]*atomic.Pointer[epochProgram]
	compiles atomic.Uint64
	// subplanSeq numbers subplans in fabrication order, the order an epoch
	// runs their merge phases (and reports their errors) in.
	subplanSeq uint64
}

// liveQuery is one live query: its stored form and its subplan.
type liveQuery struct {
	q  query.Query
	sp *queryState
}

// queryState is one fabricated subplan and the queries riding it — its
// fan's ids, in attach order. Every query whose canonical key matches shares
// one queryState (f.queries points each member at the same one); on the
// per-query control arm each query gets its own. The subplan is torn down
// when its last member detaches.
type queryState struct {
	// q is the creating query's stored form; it defines the subplan's
	// geometry (every member has the identical normal form).
	q query.Query
	// tapID is the id taps and U-operator names were registered under — the
	// creator's query id, stable even after the creator detaches while
	// other members keep the subplan alive.
	tapID string
	// key is the canonical CrAQL key the subplan is indexed under in
	// f.shared ("" on the per-query control arm).
	key  string
	plan *MergePlan
	fan  *fanOut
	keys []Key  // pipelines this subplan taps, in plan leaf order
	seq  uint64 // fabrication order (Fabricator.subplanSeq)
}

// New creates a fabricator over the grid. rng seeds the per-operator
// generators.
func New(grid *geom.Grid, cfg Config, rng *stats.RNG) (*Fabricator, error) {
	if grid == nil {
		return nil, errors.New("topology: fabricator requires a grid")
	}
	if rng == nil {
		return nil, errors.New("topology: fabricator requires an RNG")
	}
	return &Fabricator{
		grid:     grid,
		cfg:      cfg,
		rng:      rng,
		cells:    make(map[Key]*CellPipeline),
		queries:  make(map[string]liveQuery),
		order:    make(map[string][]*CellPipeline),
		slots:    make(map[string][]int32),
		shared:   make(map[string]*queryState),
		programs: make(map[string]*atomic.Pointer[epochProgram]),
	}, nil
}

// refreshOrder rebuilds the cached shard order for one attribute (and the
// sorted attr cache) and replaces the attribute's compiled epoch program
// slot. It is called exactly by the structural mutations — subplan
// fabrication, teardown, rollback — and never by refcount-only
// attach/detach, so the next epoch recompiles iff the attribute's shared
// prefixes changed. Must be called with f.mu held for writing.
func (f *Fabricator) refreshOrder(attr string) {
	list := f.order[attr][:0]
	for k, p := range f.cells {
		if k.Attr == attr {
			list = append(list, p)
		}
	}
	if len(list) == 0 {
		delete(f.order, attr)
		delete(f.slots, attr)
		delete(f.programs, attr)
	} else {
		f.programs[attr] = new(atomic.Pointer[epochProgram])
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i].key.Cell, list[j].key.Cell
			if a.R != b.R {
				return a.R < b.R
			}
			return a.Q < b.Q
		})
		f.order[attr] = list
		side := f.grid.Side()
		slot := slices.Grow(f.slots[attr][:0], side*side)[:side*side]
		for c := range slot {
			slot[c] = -1
		}
		for i, p := range list {
			slot[p.key.Cell.Q+p.key.Cell.R*side] = int32(i)
		}
		f.slots[attr] = slot
	}
	f.attrs = f.attrs[:0]
	for a := range f.order {
		f.attrs = append(f.attrs, a)
	}
	sort.Strings(f.attrs)
}

// Query returns a live query's stored form.
func (f *Fabricator) Query(id string) (query.Query, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	lq, ok := f.queries[id]
	return lq.q, ok
}

// Queries lists the live queries sorted by ID string, so Q10 precedes Q2.
func (f *Fabricator) Queries() []query.Query {
	f.mu.RLock()
	out := make([]query.Query, 0, len(f.queries))
	for _, lq := range f.queries {
		out = append(out, lq.q)
	}
	f.mu.RUnlock()
	slices.SortFunc(out, func(a, b query.Query) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// AttachBudgets connects a budget controller: every materialized
// (attribute, cell) slot is registered with it now, each later one when its
// pipeline is built, and a slot is unregistered when its pipeline is
// dropped. The controller's observations come from the engine's per-epoch
// VisitLastReports walk.
func (f *Fabricator) AttachBudgets(c *budget.Controller) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budgets = c
	for key := range f.cells {
		f.registerBudget(key)
	}
}

func (f *Fabricator) registerBudget(key Key) {
	if f.budgets != nil {
		f.budgets.Register(budget.Key{Attr: key.Attr, Cell: key.Cell})
	}
}

// InsertQueryMerge is InsertQuery; mode is ignored, kept only because
// bench/trace.go passes it (ROADMAP item 2 deletes this).
func (f *Fabricator) InsertQueryMerge(q query.Query, sink stream.Processor, _ MergeMode) (query.Query, error) {
	return f.InsertQuery(q, sink)
}

// InsertQuery validates and numbers q, builds its merge plan, and taps
// every overlapped cell pipeline, creating pipelines (and the F-operator
// first) for cells not yet materialized. It returns the stored query with
// its assigned id. The sink receives the query's fabricated MCDS.
//
// A query whose canonical normal form (craql.CanonicalKey) matches a
// resident query attaches its sink to the existing subplan's fan-out instead
// of fabricating anything: no new operators, no epoch-program recompilation,
// no shard-order rebuild — and, when the sink is a fresh *stream.ResultStore
// of the retention the subplan's resident stores have, no result ring
// either: the store is rebound onto the subplan's ring (see fanOut), which
// keeps being written once per batch. Any other sink is fanned to on its own.
func (f *Fabricator) InsertQuery(q query.Query, sink stream.Processor) (query.Query, error) {
	if sink == nil {
		return query.Query{}, errors.New("topology: InsertQuery requires a sink")
	}
	if err := q.Validate(f.grid); err != nil {
		return query.Query{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.querySeq++
	stored := q
	stored.ID = fmt.Sprintf("Q%d", f.querySeq)
	key := ""
	if f.shared != nil {
		key = craql.CanonicalKey(stored)
		if sp, ok := f.shared[key]; ok {
			sp.fan.add(stored.ID, sink)
			f.queries[stored.ID] = liveQuery{q: stored, sp: sp}
			f.sharedAttaches++
			return stored, nil
		}
	}
	overlaps := f.grid.Overlapping(stored.Region)
	if len(overlaps) == 0 {
		return query.Query{}, fmt.Errorf("topology: query %s overlaps no grid cells", stored.ID)
	}
	plan, err := BuildMergePlan(stored.ID, overlaps)
	if err != nil {
		return query.Query{}, err
	}
	fan := &fanOut{}
	fan.add(stored.ID, sink)
	f.subplanSeq++
	st := &queryState{q: stored, tapID: stored.ID, key: key, plan: plan, fan: fan, seq: f.subplanSeq}
	for _, ov := range rowMajor(overlaps) {
		key := Key{Cell: ov.Cell, Attr: stored.Attr}
		p, ok := f.cells[key]
		if !ok {
			cellRect, cellErr := f.grid.Cell(ov.Cell)
			if cellErr != nil {
				f.rollbackInsert(st)
				return query.Query{}, cellErr
			}
			// Keyed forking gives every cell a stable RNG stream that is a
			// function of (seed, cell, attr) alone — independent of query
			// insertion order and of which worker executes the cell.
			p, cellErr = NewCellPipeline(key, cellRect, f.rng.ForkKeyed(key.rngKey()))
			if cellErr != nil {
				f.rollbackInsert(st)
				return query.Query{}, cellErr
			}
			f.cells[key] = p
			f.registerBudget(key)
		}
		if err := p.AddTap(stored, ov.Rect); err != nil {
			f.rollbackInsert(st)
			return query.Query{}, err
		}
		st.keys = append(st.keys, key)
	}
	f.queries[stored.ID] = liveQuery{q: stored, sp: st}
	if key != "" {
		f.shared[key] = st
	}
	f.refreshOrder(stored.Attr)
	return stored, nil
}

// rollbackInsert undoes a partially applied insertion.
func (f *Fabricator) rollbackInsert(st *queryState) {
	for _, key := range st.keys {
		if p, ok := f.cells[key]; ok {
			_, _ = p.RemoveTap(st.tapID)
			if p.Empty() {
				f.dropPipeline(key)
			}
		}
	}
	f.refreshOrder(st.q.Attr)
}

// DeleteQuery removes a query and, when its sink is a *stream.ResultStore,
// closes that store (its reads stay valid, its waiters end). While other
// queries still share its subplan the delete is a pure detach — the
// member's sink leaves the fan-out (a shared result ring stays, written
// through a surviving member's store), refcounts drop, and no operator,
// epoch program or shard order changes.
// The last member's delete tears the subplan down: taps are detached
// right-to-left in every cell, T-operators left consecutive are merged,
// emptied pipelines (and their hashmap keys) are deleted, and the budget
// slot is unregistered when the cell no longer serves any query.
func (f *Fabricator) DeleteQuery(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	lq, ok := f.queries[id]
	if !ok {
		return fmt.Errorf("topology: DeleteQuery: unknown query %q", id)
	}
	st := lq.sp
	if !st.fan.remove(id) {
		return fmt.Errorf("topology: DeleteQuery: query %q not in its subplan's fan", id)
	}
	delete(f.queries, id)
	if len(st.fan.ids) > 0 {
		return nil
	}
	// Rebuild the shard order on every exit (registered after the Unlock
	// defer, so it runs first, still under the lock): an error return after
	// dropPipeline must not leave dropped pipelines in the cached order.
	defer f.refreshOrder(st.q.Attr)
	if st.key != "" {
		delete(f.shared, st.key)
	}
	for _, key := range st.keys {
		p, ok := f.cells[key]
		if !ok {
			continue
		}
		found, err := p.RemoveTap(st.tapID)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("topology: DeleteQuery: subplan %q not tapped in %v", st.tapID, key)
		}
		if p.Empty() {
			f.dropPipeline(key)
		}
	}
	return nil
}

func (f *Fabricator) dropPipeline(key Key) {
	delete(f.cells, key)
	if f.budgets != nil {
		f.budgets.Unregister(budget.Key{Attr: key.Attr, Cell: key.Cell})
	}
}

// Ingest runs one epoch of one attribute. The map phase assigns tuples to
// their grid cell — one counting scatter over the attribute's materialized
// cells, found through a dense row-major cell index, preserving the batch's
// order within each cell. Tuples of cells without a materialized pipeline are
// discarded uncopied (only useful grid cells are materialized). Every live
// pipeline of the batch's attribute receives a share — possibly empty — so
// F-operators report violations for starved cells, and every subplan
// delivers a batch — possibly empty — to its sinks. The scatter moves
// positions; the worker that runs a cell gathers its rows.
//
// The process phase (F → T… per cell) and the merge phase (P clips and the
// U-operators' ordering, per distinct subplan, as soon as the cells it taps
// are done) execute as the attribute's compiled position program
// (program.go) on a worker pool sized by Config.Workers — by default one
// worker per minTuplesPerWorker tuples the scatter kept, up to GOMAXPROCS, so
// the pool is sized from work already counted. Cells and subplans are the
// shard boundary: each cell draws from its own keyed RNG fork and writes only
// its own position lists, and a subplan's stream is the ascending set of its
// surviving positions whichever worker fabricated them, so the fabricated
// streams are identical to a serial run of the same seed.
//
// Ingest holds the fabricator's read lock for the whole epoch, so concurrent
// query insertion or deletion waits for the epoch boundary instead of racing
// the topology. Sinks receive batches built on scratch that is recycled when
// Ingest returns.
func (f *Fabricator) Ingest(b stream.Batch) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	// The shard list is precomputed per attribute (refreshOrder) in
	// deterministic row-major order, so errors (and the serial path) are
	// stable across runs.
	pipes := f.order[b.Attr]
	if len(pipes) == 0 {
		return nil
	}
	ep := borrowEpochScratch()
	defer ep.release()
	ep.batch, ep.pipes = b, pipes
	ep.scatter(f.grid, f.slots[b.Attr], len(pipes), b.Tuples)
	ep.begin(f.program(b.Attr))
	return ep.execute(f.cfg.epochWorkers(len(ep.pos), runtime.GOMAXPROCS(0)))
}

// cellScratch is the map phase's grouping of one batch by destination
// pipeline. It groups positions, not rows: each cell's worker gathers the
// rows its F-operator reads, so the serial prefix of an epoch copies no tuple.
type cellScratch struct {
	// start[i] is where the run of the attribute's i-th pipeline (shard
	// order) begins in pos; start has one entry past the last pipeline.
	start []int32
	// slotOf is each input tuple's pipeline position (−1 when it falls
	// outside the grid or in a cell with no pipeline), computed once and
	// reused by the scatter.
	slotOf []int32
	// pos holds the grouped tuples' positions in the batch, each cell's in
	// batch order.
	pos []uint32
	// sorted reports that the batch ascends in (T, ID), so that positions
	// order its tuples the way stream.CompareTuples does.
	sorted bool
}

// scatter groups the tuples' positions by destination pipeline: count per
// pipeline, prefix-sum the counts into run starts, then write every position
// to its pipeline's next free slot. slots maps a dense cell index to a
// pipeline position below n, or −1. The counting pass also checks, with one
// compare per tuple, whether the batch ascends in (T, ID).
func (s *cellScratch) scatter(grid *geom.Grid, slots []int32, n int, tuples []stream.Tuple) {
	side := grid.Side()
	s.start = slices.Grow(s.start[:0], n+1)[:n+1]
	clear(s.start)
	s.slotOf = slices.Grow(s.slotOf[:0], len(tuples))[:len(tuples)]
	// Pipeline i is counted in start[i+1]. The prefix sum turns that entry
	// into the beginning of i's run, the scatter uses it as i's write cursor,
	// and by the time the run is full it has reached the run's end — which is
	// where pipeline i+1 begins, exactly what start[i+1] must hold. start[0]
	// stays 0 throughout.
	counts := s.start[1:]
	kept := 0
	s.sorted = true
	var lastT float64
	var lastID uint64
	for i := range tuples {
		tp := &tuples[i]
		// stream.CompareTuples(previous, tp) > 0, on the two fields it reads.
		if s.sorted && i > 0 && (lastT > tp.T || !(lastT < tp.T) && lastID > tp.ID) {
			s.sorted = false
		}
		lastT, lastID = tp.T, tp.ID
		slot := int32(-1)
		if cell, ok := grid.CellAt(geom.Point{X: tp.X, Y: tp.Y}); ok {
			if slot = slots[cell.Q+cell.R*side]; slot >= 0 {
				counts[slot]++
				kept++
			}
		}
		s.slotOf[i] = slot
	}
	at := int32(0)
	for i := range counts {
		counts[i], at = at, at+counts[i]
	}
	s.pos = slices.Grow(s.pos[:0], kept)[:kept]
	for i, slot := range s.slotOf {
		if slot >= 0 {
			s.pos[counts[slot]] = uint32(i)
			counts[slot]++
		}
	}
}

// run returns the batch positions of pipeline position i's tuples.
func (s *cellScratch) run(i int) []uint32 { return s.pos[s.start[i]:s.start[i+1]] }

// Workers returns the largest pool an epoch may run on: Config.Workers when
// set, otherwise GOMAXPROCS, which a self-sized pool reaches only on an epoch
// of GOMAXPROCS·minTuplesPerWorker tuples or more.
func (f *Fabricator) Workers() int {
	if f.cfg.Workers > 0 {
		return f.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AppendAttrs appends the attributes with materialized pipelines, sorted,
// to dst and returns the extended slice — the set of attributes an epoch
// must ingest (possibly empty batches) so merge slices complete and
// F-operators report violations for starved cells. Pass a scratch slice with
// capacity: the epoch hot path allocates nothing here.
func (f *Fabricator) AppendAttrs(dst []string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append(dst, f.attrs...)
}

// NumPipelines returns the number of materialized (cell, attribute) keys.
func (f *Fabricator) NumPipelines() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.cells)
}

// Retune applies the adaptive rate scale to one pipeline (see
// CellPipeline.Retune): the F target and every T-operator rescale uniformly
// under the fabricator's write lock, so a retune never races a running
// epoch. Unknown keys are a no-op — the pipeline was dropped between
// observation and retune.
func (f *Fabricator) Retune(key Key, scale float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.cells[key]
	if !ok {
		return nil
	}
	return p.Retune(scale)
}

// VisitLastReports calls fn for every materialized pipeline key with the
// F-operator's most recent violation report, in deterministic
// (attr, row-major) order — it walks the cached per-attribute shard order
// (refreshOrder), so no per-call sort of the cell map. fn runs under the
// read lock, so no pipeline is built or dropped — and no budget slot
// registered or unregistered — while the walk is under way; fn must not
// change the topology itself (the engine collects its retunes and applies
// them after the walk).
func (f *Fabricator) VisitLastReports(fn func(Key, pmat.ViolationReport)) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, a := range f.attrs {
		for _, p := range f.order[a] {
			fn(p.key, p.flatten.LastReport())
		}
	}
}

// OperatorCounts tallies live operators by kind ("F", "T", "P", "U"). A
// shared subplan's U-operator counts once however many queries ride it.
func (f *Fabricator) OperatorCounts() map[string]int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]int)
	for _, p := range f.cells {
		for _, op := range p.Operators() {
			out[op.Kind()]++
		}
	}
	for _, st := range f.distinctStates() {
		out["U"] += st.plan.NumUnions()
	}
	return out
}

// TotalFlow aggregates flow statistics across every live operator — the
// cost metric of the shared-vs-naive experiment.
func (f *Fabricator) TotalFlow() stream.FlowStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var total stream.FlowStats
	add := func(s stream.FlowStats) {
		total.BatchesIn += s.BatchesIn
		total.TuplesIn += s.TuplesIn
		total.TuplesOut += s.TuplesOut
		total.RandomDraws += s.RandomDraws
	}
	for _, p := range f.cells {
		for _, op := range p.Operators() {
			add(op.Stats())
		}
	}
	for _, st := range f.distinctStates() {
		if u := st.plan.Union; u != nil {
			add(u.Stats())
		}
	}
	return total
}

// CheckInvariants verifies every pipeline's structural invariants plus the
// cross-cutting ones: each subplan taps exactly its overlapped cells
// (under its tapID — stable across member churn), and the sharing
// bookkeeping (member maps, fans and the rings they write, the shared index)
// is consistent.
func (f *Fabricator) CheckInvariants() error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, p := range f.cells {
		if err := p.Invariants(); err != nil {
			return err
		}
	}
	for _, st := range f.distinctStates() {
		want := len(f.grid.Overlapping(st.q.Region))
		if len(st.keys) != want {
			return fmt.Errorf("topology: subplan %s taps %d cells, expected %d", st.tapID, len(st.keys), want)
		}
		for _, key := range st.keys {
			p, ok := f.cells[key]
			if !ok {
				return fmt.Errorf("topology: subplan %s taps missing pipeline %v", st.tapID, key)
			}
			found := false
			for _, qid := range p.QueryIDs() {
				if qid == st.tapID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("topology: subplan %s not subscribed in pipeline %v", st.tapID, key)
			}
		}
	}
	return f.checkShared()
}

// Render draws every cell topology, sorted by key, one per line.
func (f *Fabricator) Render() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]Key, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Cell.R != b.Cell.R {
			return a.Cell.R < b.Cell.R
		}
		return a.Cell.Q < b.Cell.Q
	})
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(f.cells[k].Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}
