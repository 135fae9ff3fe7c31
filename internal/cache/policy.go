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
// Entries are keyed by output-step index — the paper's key(d_i),
// Sec. III-B — and every per-entry record lives in a table indexed by
// step, so an access hashes nothing and allocates nothing. A cache's
// eviction guard is its owner's reference ledger, handed over through
// StepCache.PinnedBy.
package cache

import "fmt"

// Policy is a fully associative replacement policy over output steps,
// 0 ≤ key ≤ 2^28. Implementations track resident entries (and, for
// LIRS/ARC, ghost history) in their step table but never account for
// bytes — the StepCache engine does — nor keep pins: those reach Victim as
// the engine's guard.
//
// The engine's contract: keys become resident via Insert, hits on resident
// keys call Access, and eviction is a two-step Victim→Evict dance (so
// policies with ghost lists can retire the entry into history).
type Policy interface {
	// Name returns the scheme's short name (LRU, LIRS, ARC, BCL, DCL).
	Name() string
	// Access records a hit on a resident key. Calling it for an absent
	// key is a no-op.
	Access(key int)
	// Insert records key becoming resident, with the given miss cost
	// (output steps from the closest previous restart step). Inserting an
	// already-resident key behaves like Access.
	Insert(key, cost int)
	// Victim proposes the next eviction victim among resident entries for
	// which pinned(key) is false. ok is false if every resident entry is
	// pinned (or the cache is empty).
	Victim(pinned func(int) bool) (victim int, ok bool)
	// Evict removes a key previously returned by Victim. Ghost-keeping
	// policies retire it into their history.
	Evict(key int)
	// Len returns the number of resident entries.
	Len() int
	// Reset forgets all resident entries, ghosts and adaptation state,
	// returning the policy to its freshly constructed condition while
	// keeping its table's chunks for reuse (the replay rep loops reset
	// one policy per replay instead of allocating a fresh one).
	Reset()
	// steps returns the policy's step table. Its nodes' resident flags
	// are the cache's residency, and the engine keeps each resident's
	// size there.
	steps() *table
}

// NewPolicy constructs a policy by name. capacity is the cache size in
// entries; it parameterizes the internal targets of LIRS and ARC and is
// ignored by the pure-recency and cost-based schemes.
func NewPolicy(name string, capacity int) (Policy, error) {
	switch name {
	case "LRU":
		return newLRU(), nil
	case "LIRS":
		return newLIRS(capacity), nil
	case "ARC":
		return newARC(capacity), nil
	case "BCL":
		return newCostLRU("BCL", false), nil
	case "DCL":
		return newCostLRU("DCL", true), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// PolicyNames lists the available replacement schemes in the order the
// paper's Figure 5 plots them.
func PolicyNames() []string { return []string{"ARC", "BCL", "DCL", "LIRS", "LRU"} }
