package topology

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/craql"
	"repro/internal/geom"
	"repro/internal/pmat"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

// programSlot returns attr's compiled-program slot (nil when attr has no
// pipelines). refreshOrder replaces it on every structural change and
// nothing else touches it, so pointer identity is the structure check.
func programSlot(f *Fabricator, attr string) *atomic.Pointer[epochProgram] {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.programs[attr]
}

// sharedFeed drives one epoch of synthetic rain observations through the
// fabricator, deterministic in (seed, epoch).
func sharedFeed(t *testing.T, f *Fabricator, seed int64, epoch int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	w := geom.Window{T0: float64(epoch), T1: float64(epoch + 1), Rect: f.grid.Region()}
	b := stream.Batch{Attr: "rain", Window: w}
	n := rng.Poisson(60 * w.Volume())
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, stream.Tuple{
			ID: uint64(epoch)<<32 | uint64(i), T: rng.Uniform(w.T0, w.T1),
			X: rng.Uniform(0, 6), Y: rng.Uniform(0, 6),
			Value: rng.Uniform(0, 1),
		})
	}
	if err := f.Ingest(b); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSubplanLifecycle inserts three identical queries and walks the
// refcounted subplan through attach, epoch delivery, creator-first detach
// and final teardown.
func TestSharedSubplanLifecycle(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	sinks := make([]*stream.Collector, 3)
	ids := make([]string, 3)
	for i := range sinks {
		sinks[i] = stream.NewCollector()
		stored, err := f.InsertQuery(q, sinks[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = stored.ID
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := f.SharedStats()
	want := SharedStats{Subplans: 1, SharedSubplans: 1, Queries: 3, SharedQueries: 3, Attaches: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// One subplan means cell operators for exactly one query's worth of
	// topology: 4 whole cells → 4 F, 4 T, 0 P, 1 U (flat).
	counts := f.OperatorCounts()
	if counts["F"] != 4 || counts["T"] != 4 || counts["P"] != 0 || counts["U"] != 1 {
		t.Fatalf("operator counts = %v, want one query's worth", counts)
	}
	g, ok := f.SharedGroup(craql.CanonicalKey(q))
	if !ok || g.Refs != 3 {
		t.Fatalf("SharedGroup = %+v, %v; want 3 refs", g, ok)
	}

	// Every member sees byte-identical delivery.
	sharedFeed(t, f, 7, 0)
	base := sinks[0].Tuples()
	if len(base) == 0 {
		t.Fatal("no tuples delivered")
	}
	for i := 1; i < 3; i++ {
		got := sinks[i].Tuples()
		if len(got) != len(base) {
			t.Fatalf("sink %d got %d tuples, sink 0 got %d", i, len(got), len(base))
		}
		for j := range got {
			if got[j] != base[j] {
				t.Fatalf("sink %d tuple %d = %+v, want %+v", i, j, got[j], base[j])
			}
		}
	}

	// Deleting the creator first must keep the subplan alive for the
	// survivors — taps stay registered under the creator's stable tapID.
	slot := programSlot(f, "rain")
	if err := f.DeleteQuery(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if programSlot(f, "rain") != slot {
		t.Fatal("refcount-only detach replaced the rain program slot")
	}
	if st := f.SharedStats(); st.Subplans != 1 || st.Queries != 2 {
		t.Fatalf("after creator delete: %+v", st)
	}
	sinks[1].Reset()
	sharedFeed(t, f, 7, 1)
	if sinks[1].Len() == 0 {
		t.Fatal("survivor stopped receiving after creator detach")
	}

	// Tearing down the last member frees the topology and its program
	// slot.
	for _, id := range ids[1:] {
		if err := f.DeleteQuery(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := f.SharedStats(); st.Subplans != 0 || st.Queries != 0 {
		t.Fatalf("after full teardown: %+v", st)
	}
	if counts := f.OperatorCounts(); counts["T"] != 0 || counts["U"] != 0 {
		t.Fatalf("operators leaked: %v", counts)
	}
	if programSlot(f, "rain") == slot {
		t.Fatal("teardown kept the rain program slot")
	}
}

// TestSharedDisabledMatchesShared is the simplest identity check: on the
// sharing arm and on the per-query control arm, the same queries over the
// same feed deliver byte-identical tuples (TestSharedDifferentialRandomized
// extends this across churn and retunes).
func TestSharedDisabledMatchesShared(t *testing.T) {
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	run := func(unshared bool) [][]stream.Tuple {
		f := controlArm(newFab(t, fig2Grid(t), Config{}), false, unshared)
		sinks := make([]*stream.Collector, 3)
		for i := range sinks {
			sinks[i] = stream.NewCollector()
			if _, err := f.InsertQuery(q, sinks[i]); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < 5; e++ {
			sharedFeed(t, f, 21, e)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		out := make([][]stream.Tuple, len(sinks))
		for i, s := range sinks {
			out[i] = s.Tuples()
		}
		return out
	}
	shared, unshared := run(false), run(true)
	for i := range shared {
		if len(shared[i]) != len(unshared[i]) {
			t.Fatalf("query %d: shared %d tuples, unshared %d", i, len(shared[i]), len(unshared[i]))
		}
		for j := range shared[i] {
			if shared[i][j] != unshared[i][j] {
				t.Fatalf("query %d tuple %d: shared %+v, unshared %+v", i, j, shared[i][j], unshared[i][j])
			}
		}
	}
}

// TestSharedDisabledIsolates verifies the control arm really fabricates
// per-query topology: identical queries get independent subplans.
func TestSharedDisabledIsolates(t *testing.T) {
	f := controlArm(newFab(t, fig2Grid(t), Config{}), false, true)
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	for i := 0; i < 3; i++ {
		if _, err := f.InsertQuery(q, stream.NewCollector()); err != nil {
			t.Fatal(err)
		}
	}
	st := f.SharedStats()
	if st.Subplans != 3 || st.SharedSubplans != 0 || st.Attaches != 0 {
		t.Fatalf("control arm shared anyway: %+v", st)
	}
	if _, ok := f.SharedGroup("anything"); ok {
		t.Fatal("SharedGroup resolved on the control arm")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProgramSlotTracksStructureOnly pins when an attribute's compiled
// epoch program is invalidated: its slot is replaced on fabrication and
// teardown of the attribute's subplans, never on refcount churn, and churn
// on one attribute leaves another's slot alone.
func TestProgramSlotTracksStructureOnly(t *testing.T) {
	f := newFab(t, fig2Grid(t), Config{})
	if _, err := f.InsertQuery(query.Query{Attr: "temp", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}, stream.NewCollector()); err != nil {
		t.Fatal(err)
	}
	temp := programSlot(f, "temp")
	if temp == nil {
		t.Fatal("temp fabrication left no program slot")
	}

	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	first, err := f.InsertQuery(q, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	rain := programSlot(f, "rain")
	if rain == nil {
		t.Fatal("rain fabrication left no program slot")
	}
	if programSlot(f, "temp") != temp {
		t.Fatal("rain fabrication replaced the temp program slot")
	}

	// Attach/detach churn on the existing subplan keeps the slot.
	for i := 0; i < 4; i++ {
		stored, err := f.InsertQuery(q, stream.NewCollector())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.DeleteQuery(stored.ID); err != nil {
			t.Fatal(err)
		}
	}
	if programSlot(f, "rain") != rain {
		t.Fatal("attach/detach churn replaced the rain program slot")
	}

	// A second rain subplan fabricated and torn down is structural for
	// rain and nothing for temp.
	other, err := f.InsertQuery(query.Query{Attr: "rain", Region: geom.NewRect(2, 2, 6, 6), Rate: 3}, stream.NewCollector())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteQuery(other.ID); err != nil {
		t.Fatal(err)
	}
	if programSlot(f, "rain") == rain {
		t.Fatal("rain subplan churn kept the rain program slot")
	}
	if programSlot(f, "temp") != temp {
		t.Fatal("rain subplan churn replaced the temp program slot")
	}
	rain = programSlot(f, "rain")

	// Tearing down the last member is structural again.
	if err := f.DeleteQuery(first.ID); err != nil {
		t.Fatal(err)
	}
	if programSlot(f, "rain") == rain {
		t.Fatal("teardown kept the rain program slot")
	}
}

// TestSharedChurnSublinear is the deterministic companion to
// BenchmarkQueryChurn: at a fixed pool of distinct query shapes, the
// fabricated topology is independent of how many resident queries ride it.
func TestSharedChurnSublinear(t *testing.T) {
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]query.Query, 0, 12)
	for i := 0; i < 12; i++ {
		x := float64(2 * (i % 3))
		y := float64(2 * ((i / 3) % 3))
		pool = append(pool, query.Query{
			Attr: "rain", Region: geom.NewRect(x, y, x+2, y+2), Rate: float64(1 + i%4),
		})
	}
	measure := func(resident int) (pipelines int, counts map[string]int) {
		f, err := New(grid, Config{}, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			if _, err := f.InsertQuery(pool[i%len(pool)], stream.NewResultStore(16)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if st := f.SharedStats(); st.Subplans > len(pool) {
			t.Fatalf("resident=%d: %d subplans for a %d-shape pool", resident, st.Subplans, len(pool))
		}
		return f.NumPipelines(), f.OperatorCounts()
	}
	p100, c100 := measure(100)
	p1000, c1000 := measure(1000)
	if p100 != p1000 {
		t.Fatalf("pipelines grew with residency: %d at 100 vs %d at 1000", p100, p1000)
	}
	for op, n := range c1000 {
		if c100[op] != n {
			t.Fatalf("operator %s grew with residency: %d at 100 vs %d at 1000", op, c100[op], n)
		}
	}
}

// ringArm drives one script of inserts, deletes and epochs through a
// fabricator whose sinks are result stores; TestSharedResultRing runs it on
// the sharing arm and on the per-query control and compares everything a
// store can report.
type ringArm struct {
	t      *testing.T
	f      *Fabricator
	stores map[string]*stream.ResultStore // by script name, deleted ones included
	ids    map[string]string
	epoch  int
}

func (a *ringArm) insert(name string, q query.Query, retention int) {
	a.t.Helper()
	store := stream.NewResultStore(retention)
	stored, err := a.f.InsertQuery(q, store)
	if err != nil {
		a.t.Fatal(err)
	}
	a.stores[name], a.ids[name] = store, stored.ID
	a.check()
}

func (a *ringArm) delete(name string) {
	a.t.Helper()
	if err := a.f.DeleteQuery(a.ids[name]); err != nil {
		a.t.Fatal(err)
	}
	if err := a.stores[name].Wait(context.Background(), a.stores[name].Total()); err != stream.ErrStoreClosed {
		a.t.Fatalf("deleted query %s: Wait = %v, want its store closed", name, err)
	}
	a.check()
}

func (a *ringArm) feed() {
	a.t.Helper()
	sharedFeed(a.t, a.f, 7, a.epoch)
	a.epoch++
}

func (a *ringArm) check() {
	a.t.Helper()
	if err := a.f.CheckInvariants(); err != nil {
		a.t.Fatal(err)
	}
}

// sameStore fails unless got, a store of the sharing arm, reports exactly
// what want, its private twin on the control arm, does: the counters, and
// every page of a read from cursor 0 with its next cursor and drop count.
func sameStore(t *testing.T, what string, got, want *stream.ResultStore) {
	t.Helper()
	if got.Total() != want.Total() || got.Dropped() != want.Dropped() || got.Len() != want.Len() {
		t.Fatalf("%s: total/dropped/len %d/%d/%d shared vs %d/%d/%d private", what,
			got.Total(), got.Dropped(), got.Len(), want.Total(), want.Dropped(), want.Len())
	}
	for cursor := uint64(0); ; {
		gp, gn, gd := got.ReadFrom(cursor, 7, nil)
		wp, wn, wd := want.ReadFrom(cursor, 7, nil)
		if gn != wn || gd != wd || !slices.Equal(gp, wp) {
			t.Fatalf("%s, cursor %d: page of %d, next %d, dropped %d shared vs %d/%d/%d private", what, cursor, len(gp), gn, gd, len(wp), wn, wd)
		}
		if len(gp) == 0 {
			return
		}
		cursor = gn
	}
}

// TestSharedResultRing pins the one-ring-per-subplan contract at the
// fabricator: members of a subplan share one ring written once per batch
// through creator-first, middle and last-member deletes; a late member
// starts at its own cursor 0; a deleted member's store is closed and frozen;
// a store of another retention keeps a ring of its own — and through all of
// it every store reports exactly what its private twin on the per-query
// control arm reports.
func TestSharedResultRing(t *testing.T) {
	q := query.Query{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6}
	other := query.Query{Attr: "rain", Region: geom.NewRect(2, 2, 6, 6), Rate: 3}
	const retention = 48 // a few epochs wrap it
	arms := make([]*ringArm, 2)
	for i := range arms {
		arms[i] = &ringArm{
			t: t, f: controlArm(newFab(t, fig2Grid(t), Config{}), false, i == 1),
			stores: map[string]*stream.ResultStore{}, ids: map[string]string{},
		}
	}
	shared, control := arms[0], arms[1]
	rings := func(want int) {
		t.Helper()
		if got := shared.f.SharedStats().ResultRings; got != want {
			t.Fatalf("sharing arm writes %d result rings, want %d", got, want)
		}
		if st := control.f.SharedStats(); st.ResultRings != st.Queries {
			t.Fatalf("control arm: %d rings for %d queries", st.ResultRings, st.Queries)
		}
	}
	compare := func(step string) {
		t.Helper()
		for name, got := range shared.stores {
			sameStore(t, step+", store "+name, got, control.stores[name])
		}
	}
	all := func(fn func(*ringArm)) {
		for _, a := range arms {
			fn(a)
		}
	}

	all(func(a *ringArm) { a.insert("A", q, retention); a.insert("B", q, retention); a.feed() })
	rings(1)
	if !shared.stores["A"].SharesRing(shared.stores["B"]) || control.stores["A"].SharesRing(control.stores["B"]) {
		t.Fatal("ring sharing does not follow the arm")
	}
	compare("two members, one epoch")

	// A late member's cursor 0 is the first tuple fabricated after it joined.
	joined := shared.stores["B"].Total()
	all(func(a *ringArm) { a.insert("C", q, retention); a.feed(); a.feed() })
	rings(1)
	if c, b := shared.stores["C"].Total(), shared.stores["B"].Total(); c != b-joined || c == 0 {
		t.Fatalf("late member saw %d tuples; B saw %d, %d of them before C joined", c, b, joined)
	}
	compare("late member")

	// Creator first: A's store is the one the ring is written through.
	all(func(a *ringArm) { a.delete("A"); a.feed() })
	rings(1)
	compare("creator deleted")

	// A middle member, with another joining around it.
	all(func(a *ringArm) { a.insert("D", q, retention); a.delete("C"); a.feed() })
	rings(1)
	compare("middle member deleted")

	// The newest member.
	all(func(a *ringArm) { a.delete("D"); a.feed() })
	rings(1)
	compare("last-attached member deleted")

	// Another retention cannot share the ring; another subplan has its own.
	all(func(a *ringArm) { a.insert("E", q, retention/2); a.insert("F", other, retention); a.feed(); a.feed() })
	rings(3)
	if shared.stores["E"].SharesRing(shared.stores["B"]) {
		t.Fatal("stores of different retention share a ring")
	}
	if g, ok := shared.f.SharedGroup(craql.CanonicalKey(q)); !ok || g.Refs != 2 {
		t.Fatalf("B and E ride subplan %+v, want 2 refs", g)
	}
	compare("mismatched retention")

	// The ring goes with its last member; the closed stores keep their reads.
	all(func(a *ringArm) { a.delete("B"); a.delete("E"); a.delete("F") })
	rings(0)
	compare("torn down")
}

// sharingScript replays one randomized script on a fabricator of the given
// seed and worker count, sharing or on the per-query control arm: submits
// drawn from a pool of few shapes (so they collide constantly), over both
// attributes, whole-cell and grid-wide regions and a spread of rates, each
// into a result store whose retention a few epochs fill; deletes of a random
// live query; retunes of random pipelines, as the adaptive loop makes them;
// and epochs of varying size. Everything random comes from the seed alone —
// the two arms number queries and order pipelines alike — so they see
// op-for-op identical scripts. It returns every query's store, the deleted
// ones' included, and the ids still live.
func sharingScript(t *testing.T, seed int64, workers int, unshared bool) (*Fabricator, map[string]*stream.ResultStore, []string) {
	t.Helper()
	pool := []query.Query{
		{Attr: "rain", Region: geom.NewRect(0, 0, 4, 4), Rate: 6},
		{Attr: "rain", Region: geom.NewRect(2, 2, 6, 6), Rate: 3},
		{Attr: "rain", Region: geom.NewRect(0, 0, 2, 2), Rate: 9},
		{Attr: "rain", Region: geom.NewRect(0, 0, 8, 8), Rate: 1},
		{Attr: "temp", Region: geom.NewRect(4, 4, 8, 8), Rate: 4},
		{Attr: "temp", Region: geom.NewRect(0.5, 4, 3.5, 7.5), Rate: 2},
	}
	grid, err := geom.NewGrid(geom.NewRect(0, 0, 8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(grid, Config{Workers: workers}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	controlArm(f, false, unshared)
	rnd := rand.New(rand.NewSource(seed))
	stores := map[string]*stream.ResultStore{}
	var live []string
	epoch := 0
	step := func() {
		n := rnd.Intn(600)
		for _, attr := range []string{"rain", "temp"} {
			if err := f.Ingest(orderSorted.apply(sourceBatch(attr, epoch, grid.Region(), n))); err != nil {
				t.Fatal(err)
			}
		}
		epoch++
	}
	for op := 0; op < 200; op++ {
		switch p := rnd.Float64(); {
		case p < 0.35:
			store := stream.NewResultStore(48)
			stored, err := f.InsertQuery(pool[rnd.Intn(len(pool))], store)
			if err != nil {
				t.Fatal(err)
			}
			stores[stored.ID] = store
			live = append(live, stored.ID)
		case p < 0.55 && len(live) > 0:
			i := rnd.Intn(len(live))
			if err := f.DeleteQuery(live[i]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
		case p < 0.65:
			f.VisitLastReports(func(k Key, _ pmat.ViolationReport) {
				if rnd.Intn(3) == 0 {
					if err := f.Retune(k, []float64{0.4, 0.7, 1}[rnd.Intn(3)]); err != nil {
						t.Fatal(err)
					}
				}
			})
		default:
			step()
		}
	}
	// Settle, so every surviving query has seen full epochs after the last
	// churn op.
	for i := 0; i < 3; i++ {
		step()
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f, stores, live
}

// TestSharedDifferentialRandomized is the sharing differential harness: for
// two seeds and worker counts, one randomized script of submits, deletes,
// retunes and epochs runs on a sharing fabricator and on the per-query
// control arm, where every query keeps a private ring, and every query's
// store — a deleted query's included — must report the same on both (see
// sameStore). Sharing is an optimization, never a behaviour change,
// including under retunes and parallel epoch execution.
func TestSharedDifferentialRandomized(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, workers := range []int{1, 3} {
			what := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			sf, shared, live := sharingScript(t, seed, workers, false)
			cf, control, controlLive := sharingScript(t, seed, workers, true)
			// The script's collisions must actually have exercised dedup, and
			// on the sharing arm only.
			sst, cst := sf.SharedStats(), cf.SharedStats()
			if sst.Attaches == 0 || sst.ResultRings != sst.Subplans || sst.ResultRings >= sst.Queries {
				t.Fatalf("%s: sharing arm did not share result rings (%+v)", what, sst)
			}
			if cst.Attaches != 0 || cst.ResultRings != cst.Queries {
				t.Fatalf("%s: control arm shared (%+v)", what, cst)
			}
			if !slices.Equal(live, controlLive) || len(shared) != len(control) {
				t.Fatalf("%s: live queries %v shared vs %v control", what, live, controlLive)
			}
			var drops uint64
			for id, got := range shared {
				sameStore(t, what+" query "+id, got, control[id])
				drops += got.Dropped()
			}
			if drops == 0 {
				t.Fatalf("%s: no ring wrapped; the script does not exercise eviction", what)
			}
		}
	}
}
