// Package cluster turns a set of independent irredd nodes into a
// coordinator-light fleet. There is no leader and no external metadata
// store: every node holds the same static seed peer set, learns liveness
// through health gossip, and routes jobs by consistent hashing on the
// job's schedule-cache routing key. Because the hash key *is* the
// inspector.ScheduleKey, the LRU+disk schedule cache shards naturally —
// repeated submissions of the same indirection land on the same node and
// hit its warm cache, no matter which node the client happened to talk to.
//
// The pieces:
//
//	ring.go    consistent-hash ring (vnodes, deterministic ownership)
//	gossip.go  peer health state machine + probe loop + wire format
//	replica.go bounded checkpoint-frame replica store
//	router.go  proxy routing with retry, backoff and failover
//	node.go    ties the above around a service.Service's HTTP handler
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member. 160 points per node
// keeps the ownership split within a few percent of uniform for small
// fleets, which is what makes the join/leave movement bound (≤ ceil(K/N))
// hold in practice and the cache sharding even.
const DefaultVNodes = 160

// Ring is an immutable consistent-hash ring over a set of member names.
// Build one with NewRing; derive post-join/post-leave views with With and
// Without. Immutability is what makes routing deterministic across nodes:
// two nodes with the same member set compute byte-identical rings.
type Ring struct {
	vnodes  int
	members []string // sorted, distinct
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with vnodes virtual points each
// (DefaultVNodes when vnodes <= 0). Duplicate names collapse; order of the
// input slice is irrelevant.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	var distinct []string
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		distinct = append(distinct, m)
	}
	sort.Strings(distinct)
	r := &Ring{
		vnodes:  vnodes,
		members: distinct,
		points:  make([]ringPoint, 0, len(distinct)*vnodes),
	}
	for _, m := range distinct {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   fnv64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by name so every node
		// still agrees on ownership.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the member names, sorted. The slice is shared; callers
// must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key: the first ring point at or after
// the key's hash, wrapping. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(fnv64(key))].member
}

// Order returns every member in failover order for key: the owner first,
// then each distinct member by ring-successor position. A job that cannot
// run on Order(key)[0] replays on Order(key)[1], and so on — the same
// deterministic list on every node that shares the member view.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	start := r.search(fnv64(key))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping to 0.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// With returns a new ring with member added.
func (r *Ring) With(member string) *Ring {
	return NewRing(append(append([]string{}, r.members...), member), r.vnodes)
}

// Without returns a new ring with member removed.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(kept, r.vnodes)
}

// fnv64 is FNV-1a over s followed by a splitmix64-style finalizer. Plain
// FNV clusters on short structured strings ("node1#0", "node1#1", ...),
// which skews vnode placement badly; the finalizer restores avalanche.
// Both ring points and routing keys hash with it, so ownership is a pure
// function of (member set, vnodes, key) — no per-process seed, no map
// iteration order, nothing node-local.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
