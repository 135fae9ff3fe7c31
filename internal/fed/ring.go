// Package fed is the federation tier: a consistent-hash ring that
// partitions contexts across daemons, and a router front-end that
// speaks the client protocol and forwards each op to the daemon owning
// its context. A context has one owner, so a watcher and the producer
// it waits for always meet on one daemon.
package fed

import (
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring mapping string keys
// (context names) onto member addresses. Each member is projected onto
// the ring at replicas virtual points so that load spreads evenly and
// membership changes move only ~1/N of the keys. Placement depends
// only on the member set and replica count — never on insertion order
// — so every router instance computes identical ownership.
type Ring struct {
	members []string
	points  []ringPoint // sorted by (hash, member)
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultReplicas is the virtual-node count used when NewRing is given
// a non-positive replica count. 128 keeps the max/min ownership skew
// under ~2x for small member sets.
const DefaultReplicas = 128

// NewRing builds a ring over the given members. Duplicate members are
// collapsed; order is irrelevant. An empty member set yields a ring
// whose Owner returns "".
func NewRing(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]ringPoint, 0, replicas*len(uniq)),
	}
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			h := fnv64a(m + "#" + strconv.Itoa(i))
			r.points = append(r.points, ringPoint{hash: h, member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member that owns key, or "" for an empty ring.
func (r *Ring) Owner(key string) string { return r.ownerOf(fnv64a(key)) }

// ownerOf is Owner for a key already hashed: the router hashes the
// context bytes of a frame it forwards without making them a string.
func (r *Ring) ownerOf(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Members returns the deduplicated, sorted member set.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// fnv64a is FNV-1a over the bytes of s, inlined to avoid the
// hash/fnv allocation on the Owner hot path, with a murmur-style
// finalizer on top. Raw FNV-1a has weak high-bit avalanche for short,
// similar inputs (daemon addresses differing in one digit; vnode
// suffixes), and ring ordering compares full 64-bit values — without
// the finalizer one member's virtual nodes can capture most of the
// ring. The fmix64 rounds spread every input bit across the word.
func fnv64a[K string | []byte](s K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
