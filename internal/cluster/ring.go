// Package cluster distributes CrAQR sessions across a pool of craqrd engine
// nodes. A stateless gateway (see Gateway) owns a consistent-hash ring over
// the pool, proxies every session-scoped /v1 request to the node the ring
// says owns that session, and on membership change hands displaced sessions
// to their new owners by deterministic WAL replay from the shared
// durability volume (see internal/server Manager.RecoverSession).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the vnode multiplier used when a Ring is built
// with vnodes <= 0. 128 points per node keeps the max/mean session
// imbalance under ~25% for small pools while the ring stays tiny (3 nodes
// → 384 points, one binary search per lookup).
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring: each node contributes a fixed
// set of virtual points on a 64-bit circle, and a session belongs to the
// node owning the first point at or clockwise of the session name's hash.
// Immutability is the concurrency story — the gateway rebuilds a Ring on
// every membership change and swaps it atomically; lookups never lock.
type Ring struct {
	vnodes int
	nodes  []string // sorted, deduplicated
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 is the ring's stable hash: FNV-1a over the raw bytes, then a
// splitmix64-style finalizer. The finalizer matters: FNV alone leaves the
// near-identical "node#0", "node#1", … vnode keys correlated enough to
// skew ownership shares well past ±50%. Stability across processes and
// releases is load-bearing — the gateway, the tests, and any future
// second gateway must all agree on session placement without
// coordination; do not change this function.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BuildRing constructs a ring over the given node names with the given
// vnode multiplier (<=0 uses DefaultVirtualNodes). Names are deduplicated;
// order does not matter — the same set always yields the same ring. An
// empty pool yields a ring whose Owner returns "".
func BuildRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node name so equal hashes still order deterministically.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning the session, or "" on an empty ring.
func (r *Ring) Owner(session string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(session)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the first
	}
	return r.points[i].node
}

// Nodes returns the distinct member names, sorted. Callers must not
// mutate the slice.
func (r *Ring) Nodes() []string { return r.nodes }
