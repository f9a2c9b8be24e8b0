// Package cluster turns bestagond into a multi-replica service: a static
// peer registry with periodic health probes, consistent hashing over the
// canonical content-addressed cache keys (internal/cache) to assign each
// key an owner replica, an HTTP peer-cache protocol for fetching and
// pushing cache entries between replicas, and a single-flight group that
// coalesces concurrent identical cold solves onto one execution.
//
// Ownership is deterministic across processes: the ring hashes member
// addresses and keys with SHA-256, so every replica that agrees on the
// live member set agrees on who owns every key — no coordination service
// required. Liveness is the only dynamic input: when a probe declares a
// peer dead, the ring is rebuilt without it and that peer's keys remap to
// their ring successors (and only those keys move).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per member. 128 points per
// member keeps the expected per-member load within a few percent of fair
// share for fleets of 2-8 replicas.
const DefaultReplicas = 128

// Ring is an immutable consistent-hash ring over a member set. Build a
// new ring when membership changes; lookups are lock-free.
type Ring struct {
	points  []point // sorted by hash
	members []string
}

type point struct {
	hash   uint64
	member string
}

// ringHash is the ring's positioning hash: the first 8 bytes of the
// SHA-256 of s, big-endian. SHA-256 (not a seeded runtime hash) makes
// ownership identical across processes and restarts — the same property
// the cache keys themselves rely on.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with the given virtual-node count per member
// (<= 0 means DefaultReplicas). Member order does not matter; duplicate
// members are collapsed.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{
				hash:   ringHash(fmt.Sprintf("%s#%d", m, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on member so equal hashes (astronomically rare) still
		// order deterministically across processes.
		return r.points[a].member < r.points[b].member
	})
	sort.Strings(r.members)
	return r
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Owners returns up to n distinct members in ring order starting at the
// key's owner. Owners(key, 2)[1] is the member that inherits the key if
// the owner leaves — the natural place to look for an entry after a
// failover, and where a recovered owner can re-fetch entries solved while
// it was down.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := r.search(key); len(out) < n; i = (i + 1) % len(r.points) {
		m := r.points[i].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise after the
// key's hash (wrapping to 0 past the end).
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
