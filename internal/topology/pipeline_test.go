package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stream"
)

func cellRect() geom.Rect { return geom.NewRect(0, 0, 2, 2) }

func newPipe(t *testing.T) *CellPipeline {
	t.Helper()
	p, err := NewCellPipeline(Key{Cell: geom.CellID{Q: 0, R: 0}, Attr: "rain"}, cellRect(), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rates returns p's T-chain output rates in chain (descending) order.
func rates(p *CellPipeline) []float64 {
	out := make([]float64, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.rate
	}
	return out
}

// queryPlan returns a live query's merge plan, nil when the query is unknown.
func queryPlan(f *Fabricator, id string) *MergePlan {
	f.mu.RLock()
	defer f.mu.RUnlock()
	lq, ok := f.queries[id]
	if !ok {
		return nil
	}
	return lq.sp.plan
}

func q(id string, rate float64) query.Query {
	return query.Query{ID: id, Attr: "rain", Region: cellRect(), Rate: rate}
}

func TestNewCellPipelineValidation(t *testing.T) {
	if _, err := NewCellPipeline(Key{}, geom.Rect{}, stats.NewRNG(1)); err == nil {
		t.Error("empty cell should error")
	}
	if _, err := NewCellPipeline(Key{}, cellRect(), nil); err == nil {
		t.Error("nil RNG should error")
	}
	p := newPipe(t)
	if !p.Empty() || len(p.nodes) != 0 {
		t.Fatal("fresh pipeline not empty")
	}
	if p.flatten == nil || p.flatten.Kind() != "F" {
		t.Fatal("F-operator missing — it must always be first")
	}
}

func TestAddTapCreatesDescendingChain(t *testing.T) {
	p := newPipe(t)
	// Insert out of order; the chain must come out descending.
	for _, spec := range []struct {
		id   string
		rate float64
	}{{"Q2", 5}, {"Q1", 10}, {"Q3", 2}} {
		if err := p.AddTap(q(spec.id, spec.rate), cellRect()); err != nil {
			t.Fatal(err)
		}
		if err := p.Invariants(); err != nil {
			t.Fatalf("invariants after %s: %v", spec.id, err)
		}
	}
	rates := rates(p)
	want := []float64{10, 5, 2}
	if len(rates) != 3 {
		t.Fatalf("rates = %v", rates)
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	// F output must exceed the head rate (headroom 1.2).
	if p.flatten.TargetRate() < 12-1e-9 {
		t.Fatalf("F target = %g, want ≥ 12", p.flatten.TargetRate())
	}
}

func TestAddTapSharedRateReusesThin(t *testing.T) {
	p := newPipe(t)
	if err := p.AddTap(q("Q1", 5), cellRect()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTap(q("Q2", 5), cellRect()); err != nil {
		t.Fatal(err)
	}
	if len(p.nodes) != 1 {
		t.Fatalf("thins = %d, want shared single T", len(p.nodes))
	}
	if err := p.Invariants(); err != nil {
		t.Fatal(err)
	}
	ids := p.QueryIDs()
	if len(ids) != 2 {
		t.Fatalf("query ids = %v", ids)
	}
}

func TestAddTapValidation(t *testing.T) {
	p := newPipe(t)
	if err := p.AddTap(q("Q1", 0), cellRect()); err == nil {
		t.Error("zero rate should error")
	}
	if err := p.AddTap(q("Q1", 5), geom.NewRect(1, 1, 3, 3)); err == nil {
		t.Error("overlap escaping cell should error")
	}
	if err := p.AddTap(q("Q1", 5), cellRect()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTap(q("Q1", 3), cellRect()); err == nil {
		t.Error("duplicate subscription should error")
	}
}

func TestPartialOverlapGetsPartition(t *testing.T) {
	p := newPipe(t)
	sub := geom.NewRect(0, 0, 1, 1)
	if err := p.AddTap(q("Q1", 5), sub); err != nil {
		t.Fatal(err)
	}
	ops := p.Operators()
	foundP := false
	for _, op := range ops {
		if op.Kind() == "P" {
			foundP = true
		}
	}
	if !foundP {
		t.Fatal("partial overlap did not create a P-operator")
	}
	// Full-cell tap must NOT create a P-operator.
	p2 := newPipe(t)
	if err := p2.AddTap(q("Q1", 5), cellRect()); err != nil {
		t.Fatal(err)
	}
	for _, op := range p2.Operators() {
		if op.Kind() == "P" {
			t.Fatal("full-cell tap created an unnecessary P-operator")
		}
	}
}

func TestPipelineDeliversAtRequestedRates(t *testing.T) {
	p := newPipe(t)
	if err := p.AddTap(q("Q1", 40), cellRect()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTap(q("Q2", 10), cellRect()); err != nil {
		t.Fatal(err)
	}
	// Feed heavy homogeneous batches (rate far above F target so flatten
	// can deliver) through the cell's kernel: what survives stage j is what
	// the whole-cell tap at the j-th rate node delivers.
	rng := stats.NewRNG(99)
	var r1, r2 stats.Summary
	lists := make([][]uint32, 2)
	var ws workerScratch
	for epoch := 0; epoch < 40; epoch++ {
		w := geom.Window{T0: float64(epoch), T1: float64(epoch + 1), Rect: cellRect()}
		n := rng.Poisson(150 * w.Volume())
		b := stream.Batch{Attr: "rain", Window: w}
		for i := 0; i < n; i++ {
			b.Tuples = append(b.Tuples, stream.Tuple{
				ID: uint64(i), T: rng.Uniform(w.T0, w.T1),
				X: rng.Uniform(0, 2), Y: rng.Uniform(0, 2),
			})
		}
		pos := make([]uint32, len(b.Tuples))
		for i := range pos {
			pos[i] = uint32(i)
		}
		if err := p.fabricate(b, pos, lists, &ws); err != nil {
			t.Fatal(err)
		}
		r1.Add(float64(len(lists[0])) / w.Volume())
		r2.Add(float64(len(lists[1])) / w.Volume())
	}
	if math.Abs(r1.Mean()-40) > 4*r1.StdErr()+2 {
		t.Errorf("Q1 rate %g, want ≈40", r1.Mean())
	}
	if math.Abs(r2.Mean()-10) > 4*r2.StdErr()+1 {
		t.Errorf("Q2 rate %g, want ≈10", r2.Mean())
	}
}

func TestRemoveTapMergesThins(t *testing.T) {
	p := newPipe(t)
	for _, spec := range []struct {
		id   string
		rate float64
	}{{"Q1", 10}, {"Q2", 5}, {"Q3", 2}} {
		if err := p.AddTap(q(spec.id, spec.rate), cellRect()); err != nil {
			t.Fatal(err)
		}
	}
	// Remove the middle query: T(10→5) and T(5→2) must merge into T(10→2).
	found, err := p.RemoveTap("Q2")
	if err != nil || !found {
		t.Fatalf("remove failed: %v, found=%v", err, found)
	}
	if len(p.nodes) != 2 {
		t.Fatalf("thins = %d after middle removal", len(p.nodes))
	}
	if err := p.Invariants(); err != nil {
		t.Fatal(err)
	}
	rates := rates(p)
	if rates[0] != 10 || rates[1] != 2 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestRemoveHeadTap(t *testing.T) {
	p := newPipe(t)
	_ = p.AddTap(q("Q1", 10), cellRect())
	_ = p.AddTap(q("Q2", 5), cellRect())
	found, err := p.RemoveTap("Q1")
	if err != nil || !found {
		t.Fatal("head removal failed")
	}
	if err := p.Invariants(); err != nil {
		t.Fatal(err)
	}
	// The remaining T reads straight from F.
	if len(p.nodes) != 1 || p.nodes[0].rate != 5 {
		t.Fatalf("chain after head removal: %v", rates(p))
	}
}

func TestRemoveLastTapEmptiesPipeline(t *testing.T) {
	p := newPipe(t)
	_ = p.AddTap(q("Q1", 10), cellRect())
	found, err := p.RemoveTap("Q1")
	if err != nil || !found {
		t.Fatal("removal failed")
	}
	if !p.Empty() {
		t.Fatal("pipeline not empty after last tap removed")
	}
	if found, _ := p.RemoveTap("Q1"); found {
		t.Fatal("double removal succeeded")
	}
}

func TestRemoveTapUnknownQuery(t *testing.T) {
	p := newPipe(t)
	if found, err := p.RemoveTap("nope"); err != nil || found {
		t.Fatal("unknown query removal should be a clean no-op")
	}
}

func TestRemoveTapWithPartition(t *testing.T) {
	p := newPipe(t)
	sub := geom.NewRect(0, 0, 1, 1)
	_ = p.AddTap(q("Q1", 5), sub)
	found, err := p.RemoveTap("Q1")
	if err != nil || !found {
		t.Fatal("partitioned tap removal failed")
	}
	if !p.Empty() {
		t.Fatal("pipeline should be empty")
	}
}

func TestSharedRateNodeSurvivesPartialRemoval(t *testing.T) {
	p := newPipe(t)
	_ = p.AddTap(q("Q1", 5), cellRect())
	_ = p.AddTap(q("Q2", 5), cellRect())
	found, err := p.RemoveTap("Q1")
	if err != nil || !found {
		t.Fatal("removal failed")
	}
	if len(p.nodes) != 1 {
		t.Fatal("shared node deleted while still tapped")
	}
	if err := p.Invariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeadInsertionRaisesFlattenTarget(t *testing.T) {
	p := newPipe(t)
	_ = p.AddTap(q("Q1", 5), cellRect())
	before := p.flatten.TargetRate()
	_ = p.AddTap(q("Q2", 50), cellRect())
	after := p.flatten.TargetRate()
	if after <= before || after < 60-1e-9 {
		t.Fatalf("F target %g → %g; want raised above 60", before, after)
	}
	if err := p.Invariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderShowsStructure(t *testing.T) {
	p := newPipe(t)
	_ = p.AddTap(q("Q1", 10), cellRect())
	_ = p.AddTap(q("Q2", 5), geom.NewRect(0, 0, 1, 1))
	r := p.Render()
	for _, want := range []string{"F(", "T(", "Q1", "Q2·P"} {
		if !strings.Contains(r, want) {
			t.Fatalf("render %q missing %q", r, want)
		}
	}
}

func TestPipelineChurnKeepsInvariants(t *testing.T) {
	// Randomized insert/delete churn; invariants must hold at every step
	// (experiment E10's property).
	p := newPipe(t)
	rng := stats.NewRNG(7)
	live := map[string]bool{}
	seq := 0
	for step := 0; step < 400; step++ {
		if len(live) == 0 || rng.Float64() < 0.55 {
			seq++
			id := "Q" + itoa(seq)
			rate := 1 + rng.Float64()*99
			region := cellRect()
			if rng.Float64() < 0.3 {
				region = geom.NewRect(0, 0, 1, 1)
			}
			if err := p.AddTap(q(id, rate), region); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
			live[id] = true
		} else {
			var victim string
			for id := range live {
				victim = id
				break
			}
			found, err := p.RemoveTap(victim)
			if err != nil || !found {
				t.Fatalf("step %d remove %s: %v", step, victim, err)
			}
			delete(live, victim)
		}
		if err := p.Invariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(p.QueryIDs()) != len(live) {
			t.Fatalf("step %d: %d subscribed, %d live", step, len(p.QueryIDs()), len(live))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestChainSortedPropertyQuick(t *testing.T) {
	// Property: for any multiset of positive rates inserted in any order,
	// the chain is strictly descending, has one node per distinct rate, and
	// every invariant holds.
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		p, err := NewCellPipeline(Key{Cell: geom.CellID{Q: 0, R: 0}, Attr: "a"}, cellRect(), stats.NewRNG(1))
		if err != nil {
			return false
		}
		distinct := map[float64]bool{}
		for i, v := range raw {
			rate := 0.5 + math.Abs(math.Mod(v, 64))
			distinct[rate] = true
			qq := query.Query{ID: "Q" + itoa(i+1), Attr: "a", Region: cellRect(), Rate: rate}
			if err := p.AddTap(qq, cellRect()); err != nil {
				return false
			}
		}
		if len(p.nodes) != len(distinct) {
			return false
		}
		rates := rates(p)
		for i := 1; i < len(rates); i++ {
			if rates[i-1] <= rates[i] {
				return false
			}
		}
		return p.Invariants() == nil
	}
	if err := quickCheck(f, 150); err != nil {
		t.Fatal(err)
	}
}

// quickCheck wraps testing/quick with a fixed count.
func quickCheck(f interface{}, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}
