package edge

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping content keys (video ids) to an
// ordered list of origin replicas. Each origin owns VNodes points on the
// ring; a key hashes to a point and its replica order is the distinct
// origins met walking clockwise from there. The properties the edge tier
// relies on:
//
//   - Stability: the mapping is a pure function of the origin name set and
//     the key, so every edge instance (and every run) agrees on which
//     origin is primary for a video.
//   - Minimal disruption: removing one origin only remaps the keys it
//     owned; everything else keeps its primary, so a cache warmed before an
//     origin death stays valid after it.
//   - Failover order: Order returns every origin exactly once, so a
//     request can walk the list until a healthy replica answers.
type Ring struct {
	points  []ringPoint
	origins int
}

// ringPoint is one virtual node: a position on the ring owned by an origin.
type ringPoint struct {
	hash   uint64
	origin int
}

// DefaultVNodes is the virtual-node count per origin: enough to spread
// keys evenly across small origin sets without measurable lookup cost.
const DefaultVNodes = 64

// NewRing builds a ring over the named origins (names are typically base
// URLs; they only need to be distinct). vnodes <= 0 selects DefaultVNodes.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("edge: ring needs at least one origin")
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("edge: duplicate origin %q in ring", n)
		}
		seen[n] = true
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{origins: len(names)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashKey(fmt.Sprintf("%s#%d", name, v)),
				origin: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].origin < r.points[b].origin
	})
	return r, nil
}

// Order returns every origin index exactly once, primary first, in the
// clockwise order a failover should try them.
func (r *Ring) Order(key string) []int {
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	out := make([]int, 0, r.origins)
	seen := make([]bool, r.origins)
	for i := 0; i < len(r.points) && len(out) < r.origins; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.origin] {
			seen[p.origin] = true
			out = append(out, p.origin)
		}
	}
	return out
}

// hashKey is FNV-1a over the key: seed-free, stable across processes, and
// already the repository's idiom for deterministic request hashing (the
// fault injector's schedule uses the same family).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
