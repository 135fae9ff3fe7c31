package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCostLRU is BCL/DCL as they were written before the per-cost lists:
// Victim scans the recency list, and DCL's pending depreciations live in
// two maps that cancelPendingFor walks. It is kept verbatim — apart from
// the names, the integer keys and from Evict cancelling the depreciation
// that targets the evicted key, which costLRU does too — as the
// reference that TestCostLRUMatchesReferenceScan drives beside costLRU.
type refCostLRU struct {
	name    string
	dynamic bool // false: BCL, true: DCL
	byKey   map[int]*node
	rec     list // MRU front … LRU back
	// pendingDepr maps an evicted victim key to the LRU key that was
	// spared at that eviction (DCL only).
	pendingDepr map[int]int
	// deprBy maps the spared-LRU key to the cost to subtract if the
	// depreciation triggers (DCL only).
	deprBy map[int]int
}

func newRefCostLRU(name string, dynamic bool) *refCostLRU {
	return &refCostLRU{
		name:        name,
		dynamic:     dynamic,
		byKey:       map[int]*node{},
		pendingDepr: map[int]int{},
		deprBy:      map[int]int{},
	}
}

// Access implements Policy.
func (p *refCostLRU) Access(key int) {
	nd, ok := p.byKey[key]
	if !ok {
		return
	}
	p.rec.moveToFront(nd)
	if p.dynamic {
		// A re-accessed spared LRU proved sparing right: cancel any
		// pending depreciation targeting it.
		p.cancelPendingFor(key)
	}
}

// Insert implements Policy.
func (p *refCostLRU) Insert(key int, cost int) {
	if nd, ok := p.byKey[key]; ok {
		nd.cost = cost
		p.Access(key)
		return
	}
	if p.dynamic {
		// Re-insertion of a previously evicted victim before the spared
		// LRU was re-accessed: the sparing caused this extra miss, so the
		// depreciation takes effect now.
		if lruKey, ok := p.pendingDepr[key]; ok {
			delete(p.pendingDepr, key)
			if nd, resident := p.byKey[lruKey]; resident {
				nd.cost -= p.deprBy[key]
				if nd.cost < 0 {
					nd.cost = 0
				}
			}
			delete(p.deprBy, key)
		}
	}
	nd := &node{key: key, cost: cost}
	p.byKey[key] = nd
	p.rec.pushFront(nd)
}

// Victim implements Policy: the first entry from the LRU end with cost
// strictly lower than the (unpinned) LRU entry; the LRU is the fallback.
func (p *refCostLRU) Victim(pinned func(int) bool) (int, bool) {
	// Find the effective LRU: the least recently used unpinned entry.
	var lru *node
	for nd := p.rec.back; nd != nil; nd = nd.prev {
		if pinned == nil || !pinned(nd.key) {
			lru = nd
			break
		}
	}
	if lru == nil {
		return 0, false
	}
	// Scan from the LRU end towards the MRU end for a cheaper entry.
	for nd := p.rec.back; nd != nil; nd = nd.prev {
		if nd == lru || (pinned != nil && pinned(nd.key)) {
			continue
		}
		if nd.cost < lru.cost {
			p.sparedLRU(lru, nd)
			return nd.key, true
		}
	}
	return lru.key, true
}

// sparedLRU records that lru was spared in favor of evicting victim.
func (p *refCostLRU) sparedLRU(lru, victim *node) {
	if !p.dynamic {
		// BCL: depreciate immediately.
		lru.cost -= victim.cost
		if lru.cost < 0 {
			lru.cost = 0
		}
		return
	}
	// DCL: arm the depreciation; it fires if victim is missed on again
	// before lru is re-accessed.
	p.cancelPendingFor(lru.key) // at most one pending depreciation per LRU
	p.pendingDepr[victim.key] = lru.key
	p.deprBy[victim.key] = victim.cost
}

// cancelPendingFor drops pending depreciations that target lruKey.
func (p *refCostLRU) cancelPendingFor(lruKey int) {
	for victim, target := range p.pendingDepr {
		if target == lruKey {
			delete(p.pendingDepr, victim)
			delete(p.deprBy, victim)
		}
	}
}

// Evict implements Policy.
func (p *refCostLRU) Evict(key int) {
	if nd, ok := p.byKey[key]; ok {
		p.rec.remove(nd)
		delete(p.byKey, key)
	}
	p.cancelPendingFor(key)
}

// Contains reports whether key is resident.
func (p *refCostLRU) Contains(key int) bool { _, ok := p.byKey[key]; return ok }

// Len implements Policy.
func (p *refCostLRU) Len() int { return p.rec.len() }

// Reset implements Policy.
func (p *refCostLRU) Reset() {
	clear(p.byKey)
	clear(p.pendingDepr)
	clear(p.deprBy)
	p.rec = list{}
}

// costOf returns the current (possibly depreciated) cost of a resident key.
func (p *refCostLRU) costOf(key int) (int, bool) {
	nd, ok := p.byKey[key]
	if !ok {
		return 0, false
	}
	return nd.cost, true
}

// costOf returns the current (possibly depreciated) cost of a resident key.
func (p *costLRU) costOf(key int) (int, bool) {
	if nd := p.t.get(key); nd != nil && nd.resident {
		return nd.cost, true
	}
	return 0, false
}

// pending counts the armed depreciations: the victims' entries that
// point at a spared entry.
func (p *costLRU) pending() int {
	n := 0
	for nd := range p.t.all {
		if nd.deprOf != nil {
			n++
		}
	}
	return n
}

// audit checks costLRU's structural invariants: buckets non-empty and in
// ascending cost, each list in descending seq and holding the nodes of its
// cost that point at it, every resident node threaded exactly once, and
// each armed depreciation linked both ways between a victim's entry and a
// resident spared entry — which bounds the pending count by Len().
func (p *costLRU) audit() error {
	threaded := 0
	for i, b := range p.buckets {
		if b.rec.len() == 0 || (i > 0 && p.buckets[i-1].cost >= b.cost) {
			return fmt.Errorf("bucket %d (cost %d): empty or out of order", i, b.cost)
		}
		n := 0
		for nd := b.rec.front; nd != nil; nd = nd.next {
			if nd.cost != b.cost || nd.bucket != b || p.t.get(nd.key) != nd || !nd.resident || (nd.next != nil && nd.next.seq >= nd.seq) {
				return fmt.Errorf("bucket cost %d: node %v (cost %d, seq %d) misplaced", b.cost, nd.key, nd.cost, nd.seq)
			}
			if v := nd.sparedFor; v != nil && v.deprOf != nd {
				return fmt.Errorf("node %v spared for %v, which has no pending depreciation of it", nd.key, v.key)
			}
			n++
		}
		if n != b.rec.len() {
			return fmt.Errorf("bucket cost %d: %d nodes, len %d", b.cost, n, b.rec.len())
		}
		threaded += n
	}
	if threaded != p.Len() {
		return fmt.Errorf("%d nodes threaded, %d resident", threaded, p.Len())
	}
	for nd := range p.t.all {
		if lru := nd.deprOf; lru != nil && (lru.sparedFor != nd || !lru.resident) {
			return fmt.Errorf("the depreciation armed by %v targets %v, which is not resident and spared for it", nd.key, lru.key)
		}
	}
	if n := p.pending(); n > p.Len() {
		return fmt.Errorf("%d pending depreciations for %d residents", n, p.Len())
	}
	return nil
}

// TestCostLRUMatchesReferenceScan drives costLRU and the reference scan
// through the same seeded random operations and guard sets and requires the
// same victim, the same cost for every key and the same Len after each one:
// the order in which BCL and DCL evict is what Fig. 5 and the DES tables
// print.
func TestCostLRUMatchesReferenceScan(t *testing.T) {
	shapes := []struct{ keys, capacity, costs, ops int }{
		{keys: 24, capacity: 8, costs: 4, ops: 20000},
		{keys: 96, capacity: 32, costs: 12, ops: 20000},
		{keys: 48, capacity: 16, costs: 1000, ops: 20000}, // nearly every entry its own bucket
	}
	for _, name := range []string{"BCL", "DCL"} {
		dynamic := name == "DCL"
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("%s/keys=%d", name, sh.keys), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(si + 1)))
				got, ref := newCostLRU(name, dynamic), newRefCostLRU(name, dynamic)
				guarded := map[int]bool{}
				var guard func(int) bool // nil until the first guard op: Victim(nil) is a path of its own
				evict := func(i int, thenEvict bool) {
					gv, gok := got.Victim(guard)
					rv, rok := ref.Victim(guard)
					if gv != rv || gok != rok {
						t.Fatalf("op %d: victim %d,%v, reference %d,%v", i, gv, gok, rv, rok)
					}
					if gok && thenEvict {
						got.Evict(gv)
						ref.Evict(rv)
					}
				}
				for i := 0; i < sh.ops; i++ {
					key := rng.Intn(sh.keys)
					switch op := rng.Intn(100); {
					case op < 40:
						if !ref.Contains(key) && ref.Len() >= sh.capacity {
							evict(i, true)
						}
						cost := rng.Intn(sh.costs)
						got.Insert(key, cost)
						ref.Insert(key, cost)
					case op < 65:
						got.Access(key)
						ref.Access(key)
					case op < 80:
						evict(i, true)
					case op < 83:
						evict(i, false) // a proposal nobody acts on
					case op < 99:
						guard = func(k int) bool { return guarded[k] }
						clear(guarded)
						switch mode := rng.Intn(4); mode {
						case 0: // nothing guarded
						case 1: // everything guarded
							for k := 0; k < sh.keys; k++ {
								guarded[k] = true
							}
						case 2: // the oldest entries guarded: the effective LRU is not the list's back
							nd := ref.rec.back
							for n := rng.Intn(sh.capacity/2 + 1); n > 0 && nd != nil; n-- {
								guarded[nd.key] = true
								nd = nd.prev
							}
						case 3: // a random subset
							for k := 0; k < sh.keys; k++ {
								guarded[k] = rng.Intn(3) == 0
							}
						}
					default:
						got.Reset()
						ref.Reset()
					}
					if got.Len() != ref.Len() {
						t.Fatalf("op %d: Len %d, reference %d", i, got.Len(), ref.Len())
					}
					for k := 0; k < sh.keys; k++ {
						gc, gok := got.costOf(k)
						rc, rok := ref.costOf(k)
						if gc != rc || gok != rok {
							t.Fatalf("op %d: key %d cost %d,%v, reference %d,%v", i, k, gc, gok, rc, rok)
						}
					}
					if err := got.audit(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestDCLPendingBoundedByResidents pins the invariant that makes DCL's
// bookkeeping O(cache), not O(key space): a pending depreciation is dropped
// when the entry it targets is evicted, so there is never more than one per
// resident. Before that, one outlived every spared LRU — the map grew to
// the number of keys ever evicted, and a key that came back could be
// depreciated for a sparing its previous incarnation received.
func TestDCLPendingBoundedByResidents(t *testing.T) {
	const capacity = 16
	pol := newCostLRU("DCL", true)
	c := NewStepCache(pol, capacity)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		key := rng.Intn(64 * capacity)
		if !c.Touch(key) {
			if _, err := c.InsertDiscard(key, 1, rng.Intn(8)+1); err != nil {
				t.Fatal(err)
			}
		}
		if n := pol.pending(); n > pol.Len() {
			t.Fatalf("op %d: %d pending depreciations for %d residents", i, n, pol.Len())
		}
	}
	if err := pol.audit(); err != nil {
		t.Fatal(err)
	}
}
