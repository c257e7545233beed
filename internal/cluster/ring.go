// Package cluster turns independent draid nodes into a fleet. Membership
// is static (every node is started with the same `-peers` list), routing
// is a consistent-hash ring over the live members (so job placement is a
// pure function of the job ID and the set of healthy nodes — no
// coordinator, no gossip), and the shared parallel filesystem under every
// node's data dir is what makes failover cheap: when a node dies its hash
// ranges fall deterministically to the survivors, which replay the dead
// node's ledger straight from the shared dir and keep serving.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring: each member contributes
// VNodes points (hashes of "id#k"), and a key is owned by the member
// whose point is the first at or clockwise after the key's hash.
// Immutability keeps lookups lock-free; membership changes build a new
// ring.
type Ring struct {
	points []ringPoint
	vnodes int
	member map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes balances ownership to within a few percent for small
// fleets without making ring rebuilds expensive.
const DefaultVNodes = 64

// NewRing builds a ring over the given member IDs. vnodes <= 0 picks
// DefaultVNodes. An empty member list yields a ring that owns nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(members)*vnodes),
		vnodes: vnodes,
		member: make(map[string]bool, len(members)),
	}
	for _, id := range members {
		if id == "" || r.member[id] {
			continue
		}
		r.member[id] = true
		for k := 0; k < vnodes; k++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", id, k)),
				node: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node ID so equal hashes order identically on
		// every node regardless of the member-list order they were fed.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash is FNV-1a 64 pushed through a murmur3-style finalizer.
// Plain FNV has weak avalanche in the high bits for keys differing only
// in their tail ("job-000041" vs "job-000042"), which is exactly what
// sequential job IDs look like — without the mix they cluster onto one
// member. The result is stable across processes and architectures, so
// every node agrees on placement.
func ringHash(s string) uint64 {
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

// Owner returns the member owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point owns the arc past the last hash
	}
	return r.points[i].node
}

// Members returns the ring's member IDs, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.member))
	for id := range r.member {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Has reports membership.
func (r *Ring) Has(id string) bool { return r.member[id] }

// Shares estimates each member's fraction of the hash space from its
// arc lengths — the /v1/cluster balance report.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.member))
	if len(r.points) == 0 {
		return shares
	}
	const space = float64(1<<63) * 2 // 2^64 as float
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			// First point owns the wrap-around arc from the last point.
			arc = p.hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		shares[p.node] += float64(arc) / space
	}
	return shares
}
