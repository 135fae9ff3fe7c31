// Package cache implements the simulation-data caching layer of SimFS
// (paper Sec. III-D): fully associative replacement over output step files,
// with reference counting (pinning) so that output steps currently accessed
// by an analysis are never evicted, and with cost-aware schemes whose miss
// cost is the number of output steps that must be re-simulated (the
// distance from the closest previous restart step).
//
// Five replacement policies are provided, matching the paper's evaluation:
// LRU, LIRS (Jiang & Zhang), ARC (Megiddo & Modha), and the cost-sensitive
// BCL and DCL of Jeong & Dubois adapted to fully associative caches.
//
// All policies are generic over the key type. The Virtualizer and the
// experiment replay paths key entries by integer output-step index — the
// paper's key(d_i), Sec. III-B — so no file name is formatted per access;
// the string-keyed Policy/Cache aliases below remain only for the
// benchmark drills and tests. A cache's eviction guard is its owner's
// reference ledger, handed over through CacheOf.PinnedBy.
package cache

import "fmt"

// PolicyOf is a fully associative replacement policy over keys of type K.
// Implementations track resident entries (and, for LIRS/ARC, ghost
// history) but never account for bytes — the Cache engine does — nor
// keep pins: those reach Victim as the engine's guard.
//
// The engine's contract: keys become resident via Insert, hits on resident
// keys call Access, and eviction is a two-step Victim→Evict dance (so
// policies with ghost lists can retire the entry into history).
type PolicyOf[K comparable] interface {
	// Name returns the scheme's short name (LRU, LIRS, ARC, BCL, DCL).
	Name() string
	// Access records a hit on a resident key. Calling it for an absent
	// key is a no-op.
	Access(key K)
	// Insert records key becoming resident, with the given miss cost
	// (output steps from the closest previous restart step). Inserting an
	// already-resident key behaves like Access.
	Insert(key K, cost int)
	// Victim proposes the next eviction victim among resident entries for
	// which pinned(key) is false. ok is false if every resident entry is
	// pinned (or the cache is empty).
	Victim(pinned func(K) bool) (victim K, ok bool)
	// Evict removes a key previously returned by Victim. Ghost-keeping
	// policies retire it into their history.
	Evict(key K)
	// Contains reports whether key is resident.
	Contains(key K) bool
	// Len returns the number of resident entries.
	Len() int
	// Reset forgets all resident entries, ghosts and adaptation state,
	// returning the policy to its freshly constructed condition while
	// keeping allocated map storage for reuse (the replay rep loops reset
	// one policy per replay instead of allocating a fresh one).
	Reset()
}

// Policy is the string-keyed policy; like Cache it has no caller outside
// the benchmark drills and tests.
type Policy = PolicyOf[string]

// NewPolicyOf constructs a policy by name over any comparable key type.
// capacity is the cache size in entries; it parameterizes the internal
// targets of LIRS and ARC and is ignored by the pure-recency and
// cost-based schemes.
func NewPolicyOf[K comparable](name string, capacity int) (PolicyOf[K], error) {
	switch name {
	case "LRU":
		return newLRU[K](), nil
	case "LIRS":
		return newLIRS[K](capacity), nil
	case "ARC":
		return newARC[K](capacity), nil
	case "BCL":
		return newCostLRU[K]("BCL", false), nil
	case "DCL":
		return newCostLRU[K]("DCL", true), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// NewPolicy constructs a string-keyed policy by name (for the benchmark
// drills and tests; everything else calls NewPolicyOf[int]).
func NewPolicy(name string, capacity int) (Policy, error) {
	return NewPolicyOf[string](name, capacity)
}

// PolicyNames lists the available replacement schemes in the order the
// paper's Figure 5 plots them.
func PolicyNames() []string { return []string{"ARC", "BCL", "DCL", "LIRS", "LRU"} }
