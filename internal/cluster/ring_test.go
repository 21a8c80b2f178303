package cluster

import (
	"fmt"
	"testing"
)

// sessionCorpus is the synthetic keyspace the ring properties are checked
// over — enough names that balance statistics are meaningful.
func sessionCorpus(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d/session-%d", i%97, i)
	}
	return names
}

// TestRingDeterminism: placement is a pure function of the member set —
// input order, duplicates, and rebuilding must not move a single session.
func TestRingDeterminism(t *testing.T) {
	sessions := sessionCorpus(5000)
	a := BuildRing([]string{"a", "b", "c"}, 0)
	b := BuildRing([]string{"c", "a", "b", "a", "c", ""}, 0)
	c := BuildRing([]string{"b", "c", "a"}, 0)
	if len(a.nodes) != 3 || len(b.nodes) != 3 {
		t.Fatalf("ring sizes = %d, %d, want 3 (dedup + drop empties)", len(a.nodes), len(b.nodes))
	}
	for _, s := range sessions {
		if a.Owner(s) != b.Owner(s) || a.Owner(s) != c.Owner(s) {
			t.Fatalf("session %q placed differently across identical member sets: %q/%q/%q",
				s, a.Owner(s), b.Owner(s), c.Owner(s))
		}
	}
	if BuildRing(nil, 0).Owner("x") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// TestRingBalance: with the default vnode multiplier every node's share of
// a large keyspace stays within ±50% of the K/N mean — the coarse bound
// that catches a broken hash or vnode layout without being flaky.
func TestRingBalance(t *testing.T) {
	sessions := sessionCorpus(12000)
	for _, n := range []int{2, 3, 5} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d", i)
		}
		r := BuildRing(nodes, 0)
		counts := map[string]int{}
		for _, s := range sessions {
			counts[r.Owner(s)]++
		}
		mean := float64(len(sessions)) / float64(n)
		for _, node := range nodes {
			share := float64(counts[node])
			if share < mean*0.5 || share > mean*1.5 {
				t.Errorf("%d nodes: %s owns %.0f sessions, outside [%.0f, %.0f] (mean %.0f)",
					n, node, share, mean*0.5, mean*1.5, mean)
			}
		}
	}
}

// TestRingMinimalMovement: growing the pool only moves sessions onto the
// new node (about K/N of them), and shrinking only moves the lost node's
// sessions — nothing shuffles between survivors. This is the property
// that keeps a membership change from triggering a cluster-wide WAL
// replay storm.
func TestRingMinimalMovement(t *testing.T) {
	sessions := sessionCorpus(8000)
	three := BuildRing([]string{"a", "b", "c"}, 0)
	four := BuildRing([]string{"a", "b", "c", "d"}, 0)

	moved := 0
	for _, s := range sessions {
		was, is := three.Owner(s), four.Owner(s)
		if was == is {
			continue
		}
		moved++
		if is != "d" {
			t.Fatalf("join: session %q moved %s -> %s (only moves onto the joining node are allowed)", s, was, is)
		}
	}
	expect := float64(len(sessions)) / 4
	if f := float64(moved); f < expect*0.5 || f > expect*1.5 {
		t.Errorf("join moved %d sessions, want about K/N = %.0f (±50%%)", moved, expect)
	}

	two := BuildRing([]string{"a", "b"}, 0)
	for _, s := range sessions {
		was, is := three.Owner(s), two.Owner(s)
		if was == "c" {
			if is == "c" {
				t.Fatalf("leave: session %q still owned by the removed node", s)
			}
			continue
		}
		if was != is {
			t.Fatalf("leave: session %q shuffled %s -> %s though its owner survived", s, was, is)
		}
	}
}

// TestRingVnodeEffect: more virtual nodes tighten balance — the knob does
// what the flag says.
func TestRingVnodeEffect(t *testing.T) {
	sessions := sessionCorpus(12000)
	spread := func(vnodes int) float64 {
		r := BuildRing([]string{"a", "b", "c"}, vnodes)
		counts := map[string]int{}
		for _, s := range sessions {
			counts[r.Owner(s)]++
		}
		lo, hi := len(sessions), 0
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return float64(hi-lo) / (float64(len(sessions)) / 3)
	}
	if s1, s256 := spread(1), spread(256); s256 >= s1 {
		t.Errorf("vnodes=256 spread %.2f not tighter than vnodes=1 spread %.2f", s256, s1)
	}
}
