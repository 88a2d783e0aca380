package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerReplica is how many virtual points each replica contributes to
// the ring. 64 keeps the per-replica key share within a few percent of
// even for small pools while the ring stays tiny (a 16-replica pool is
// 1024 points, one binary search per route).
const vnodesPerReplica = 64

// ring is an immutable consistent-hash ring over the pool's eligible
// replicas. The pool rebuilds (and atomically swaps) the ring whenever
// membership changes — a replica turning healthy, going down, starting to
// drain, or being cordoned for a rolling reload — so routing never
// consults health state on the hot path, it just walks the ring. Keys are
// model names: an idle pool sends one model's traffic to its owner replica
// (warm caches, stable batching), and a busy owner yields to the next ring
// node with fewer requests in flight.
type ring struct {
	points  []ringPoint // sorted by hash
	members []*Replica  // distinct replicas on the ring
}

type ringPoint struct {
	hash uint64
	rep  *Replica
}

// buildRing constructs a ring over members. An empty member list yields an
// empty ring (candidates always nil) — the "no ready replica" state.
func buildRing(members []*Replica) *ring {
	r := &ring{members: members}
	r.points = make([]ringPoint, 0, len(members)*vnodesPerReplica)
	for _, m := range members {
		for v := 0; v < vnodesPerReplica; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", m.ID, v)),
				rep:  m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on ID so two replicas hashing onto the same point order
		// deterministically regardless of member order.
		return r.points[i].rep.ID < r.points[j].rep.ID
	})
	return r
}

// candidates returns the ring's distinct replicas in ring order starting
// at the owner of key: candidates[0] is the consistent-hash owner, and
// the order is how routing and the retry break in-flight ties. The slice
// is freshly allocated; callers may reorder it.
func (r *ring) candidates(key string) []*Replica {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]*Replica, 0, len(r.members))
	seen := make(map[*Replica]bool, len(r.members))
	for n := 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.rep] {
			seen[p.rep] = true
			out = append(out, p.rep)
		}
	}
	return out
}

// owner returns the consistent-hash owner of key, or nil on an empty ring.
func (r *ring) owner(key string) *Replica {
	if c := r.candidates(key); len(c) > 0 {
		return c[0]
	}
	return nil
}

// hash64 is FNV-64a pushed through a murmur3-style avalanche finalizer:
// plain FNV clusters badly on short, similar strings ("r0#1", "r0#2", …),
// which starves replicas of ring share; the finalizer spreads those
// neighboring hashes across the whole ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
