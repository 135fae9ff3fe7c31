package cache

import (
	"cmp"
	"slices"
)

// Cost-sensitive LRU variants of Jeong & Dubois ("Cache replacement
// algorithms with nonuniform miss costs", IEEE ToC 2006), as adapted by the
// paper (Sec. III-D): the victim is not the LRU entry if a more recently
// used entry with a lower miss cost exists. Scanning from the LRU end
// toward the MRU end, the first entry with cost strictly lower than the
// LRU's (current, possibly depreciated) cost is selected; the LRU itself is
// the fallback. When the LRU entry is spared, its cost is depreciated — by
// the cost of the actually evicted entry — so that a costly but
// sporadically accessed entry cannot indefinitely force the eviction of
// cheaper, highly reused entries.
//
// BCL (basic) depreciates the LRU as soon as it is spared. DCL (dynamic)
// records the spared LRU and applies the depreciation only if the evicted
// non-LRU entry is re-inserted (i.e. missed on again) while the spared LRU
// entry is still resident and has not been re-accessed — evidence that
// sparing it was the wrong call.
//
// Nothing here scans the cache. Entries are threaded through one recency
// list per distinct cost and stamped with a global recency sequence, so
// the scan's answer — the oldest unguarded entry among those cheaper than
// the oldest unguarded entry overall — is read off the list tails in
// O(#distinct costs + #guarded entries); refCostLRU (in the tests) keeps
// the literal scan and is driven beside this one.

// costLRU is the shared machinery of BCL and DCL.
type costLRU struct {
	name    string
	dynamic bool // false: BCL, true: DCL
	t       table
	n       int // resident entries
	// buckets holds the resident entries, one recency list (MRU front …
	// LRU back, i.e. descending seq) per distinct cost, sorted by ascending
	// cost. A bucket that empties is dropped and waits in spare; an entry
	// points at its bucket (node.bucket), so a hit searches nothing.
	buckets []*costBucket
	spare   []*costBucket
	seq     uint64 // the last recency stamp handed out
}

type costBucket struct {
	cost int
	rec  list
}

func newCostLRU(name string, dynamic bool) *costLRU {
	return &costLRU{name: name, dynamic: dynamic}
}

// Name implements Policy.
func (p *costLRU) Name() string { return p.name }

func (p *costLRU) steps() *table { return &p.t }

// Access implements Policy.
func (p *costLRU) Access(key int) {
	if nd := p.t.get(key); nd != nil && nd.resident {
		p.touch(nd, nd.cost)
	}
}

// Insert implements Policy.
func (p *costLRU) Insert(key, cost int) {
	nd := p.t.at(key)
	if nd.resident {
		p.touch(nd, cost)
		return
	}
	// Re-insertion of a previously evicted victim before the spared LRU
	// was re-accessed: the sparing caused this extra miss, so the
	// depreciation takes effect now.
	if lru := nd.deprOf; lru != nil {
		p.cancelPending(lru)
		p.recost(lru, max(lru.cost-nd.deprBy, 0))
	}
	nd.key, nd.cost, nd.resident = key, cost, true
	p.n++
	p.seq++
	nd.seq = p.seq
	p.link(nd)
}

// touch makes nd the most recently used entry, at the given cost. A
// re-accessed spared LRU proved sparing right, so its pending depreciation
// is dropped.
func (p *costLRU) touch(nd *node, cost int) {
	p.seq++
	nd.seq = p.seq
	if nd.cost == cost {
		nd.bucket.rec.moveToFront(nd)
	} else {
		p.recost(nd, cost)
	}
	p.cancelPending(nd)
}

// recost moves nd to the bucket of its new cost, keeping its age.
func (p *costLRU) recost(nd *node, cost int) {
	if nd.cost != cost {
		p.unlink(nd)
		nd.cost = cost
		p.link(nd)
	}
}

// bucketIndex returns the index of cost's bucket, or where it would go.
func (p *costLRU) bucketIndex(cost int) (int, bool) {
	return slices.BinarySearchFunc(p.buckets, cost, func(b *costBucket, cost int) int {
		return cmp.Compare(b.cost, cost)
	})
}

// link threads nd into the bucket of its cost at the place its seq gives
// it: the front for a fresh stamp, further back for a depreciated entry
// that keeps its age (only entries that were guarded when it was spared
// can be older).
func (p *costLRU) link(nd *node) {
	i, found := p.bucketIndex(nd.cost)
	if !found {
		var b *costBucket
		if n := len(p.spare); n > 0 {
			b, p.spare = p.spare[n-1], p.spare[:n-1]
		} else {
			b = new(costBucket)
		}
		b.cost = nd.cost
		p.buckets = slices.Insert(p.buckets, i, b)
	}
	nd.bucket = p.buckets[i]
	rec := &nd.bucket.rec
	var at *node
	if rec.front != nil && rec.front.seq > nd.seq {
		for at = rec.back; at.seq < nd.seq; at = at.prev {
		}
	}
	rec.insertAfter(nd, at)
}

func (p *costLRU) unlink(nd *node) {
	b := nd.bucket
	b.rec.remove(nd)
	if b.rec.len() == 0 {
		i, _ := p.bucketIndex(b.cost)
		p.buckets = slices.Delete(p.buckets, i, i+1)
		p.spare = append(p.spare, b)
	}
}

// Victim implements Policy: the first entry from the LRU end with cost
// strictly lower than the (unpinned) LRU entry; the LRU is the fallback.
func (p *costLRU) Victim(pinned func(int) bool) (int, bool) {
	// One pass over the buckets in ascending cost. lru is the oldest
	// unpinned entry seen so far; whenever a costlier bucket's tail turns
	// out older still, the one it displaces is the oldest among all cheaper
	// entries — the scan's pick. A bucket is searched only as far back as
	// entries older than the current lru, and the pinned checks are written
	// inline (no wrapper closure): Victim runs once per eviction on the
	// replay hot path.
	var lru, cheaper *node
	for _, b := range p.buckets {
		for nd := b.rec.back; nd != nil && (lru == nil || nd.seq < lru.seq); nd = nd.prev {
			if pinned == nil || !pinned(nd.key) {
				cheaper, lru = lru, nd
				break
			}
		}
	}
	if lru == nil {
		return 0, false
	}
	if cheaper == nil {
		return lru.key, true
	}
	p.sparedLRU(lru, cheaper)
	return cheaper.key, true
}

// sparedLRU records that lru was spared in favor of evicting victim.
func (p *costLRU) sparedLRU(lru, victim *node) {
	if !p.dynamic {
		// BCL: depreciate immediately.
		p.recost(lru, max(lru.cost-victim.cost, 0))
		return
	}
	// DCL: arm the depreciation; it fires if victim is missed on again
	// before lru is re-accessed. At most one is pending per LRU and per
	// victim.
	p.cancelPending(lru)
	if other := victim.deprOf; other != nil {
		p.cancelPending(other)
	}
	victim.deprOf, victim.deprBy = lru, victim.cost
	lru.sparedFor = victim
}

// cancelPending disarms the depreciation that targets nd.
func (p *costLRU) cancelPending(nd *node) {
	if v := nd.sparedFor; v != nil {
		v.deprOf, nd.sparedFor = nil, nil
	}
}

// Evict implements Policy. A depreciation that targets key goes with
// it: the entry it would have depreciated is gone, and a later
// incarnation of the key must not inherit it. One that key's own
// eviction armed stays on its entry, for a re-insertion to fire.
func (p *costLRU) Evict(key int) {
	if nd := p.t.get(key); nd != nil && nd.resident {
		p.cancelPending(nd)
		p.unlink(nd)
		nd.resident = false
		p.n--
	}
}

// Len implements Policy.
func (p *costLRU) Len() int { return p.n }

// Reset implements Policy.
func (p *costLRU) Reset() {
	p.t.reset()
	for _, b := range p.buckets {
		b.rec = list{}
	}
	p.spare = append(p.spare, p.buckets...)
	p.buckets = p.buckets[:0]
	p.seq, p.n = 0, 0
}
