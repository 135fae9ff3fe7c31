package cache

// ARC (Adaptive Replacement Cache, Megiddo & Modha, FAST 2003) keeps two
// resident lists — T1 for entries seen once recently, T2 for entries seen
// at least twice — plus ghost lists B1 and B2 remembering recently evicted
// keys from each. A hit in B1 (resp. B2) grows (resp. shrinks) the
// adaptation target p, shifting capacity between recency and frequency at
// runtime "in order to adapt to the observed access pattern" (paper
// Sec. III-D).
type arcPolicy struct {
	c  int // capacity in entries
	p  int // target size of T1
	t1 list
	t2 list
	b1 list
	b2 list
	t  table
}

// arcList identifies which of the four lists a node is on; it is stored
// in the node's cost field (ARC is cost-oblivious), and 0 means none.
type arcList = int

const (
	inT1 arcList = iota + 1
	inT2
	inB1
	inB2
)

// newARC returns an empty ARC policy with the given capacity in entries.
func newARC(capacity int) *arcPolicy {
	return &arcPolicy{c: max(capacity, 1)}
}

// Name implements Policy.
func (p *arcPolicy) Name() string { return "ARC" }

func (p *arcPolicy) steps() *table { return &p.t }

func (p *arcPolicy) listOf(l arcList) *list {
	switch l {
	case inT1:
		return &p.t1
	case inT2:
		return &p.t2
	case inB1:
		return &p.b1
	default:
		return &p.b2
	}
}

// Access implements Policy: a hit moves the entry to the MRU position
// of T2.
func (p *arcPolicy) Access(key int) {
	if nd := p.t.get(key); nd != nil && nd.resident {
		p.toT2(nd)
	}
}

// toT2 moves nd from whichever list it is on to the MRU end of T2.
func (p *arcPolicy) toT2(nd *node) {
	p.listOf(nd.cost).remove(nd)
	nd.cost, nd.resident = inT2, true
	p.t2.pushFront(nd)
}

// Insert implements Policy. Ghost hits adapt the target p exactly as in
// the original algorithm; the engine performs the actual eviction via
// Victim/Evict, so REPLACE here only trims ghost lists.
func (p *arcPolicy) Insert(key, cost int) {
	nd := p.t.at(key)
	switch nd.cost {
	case inT1, inT2:
		p.toT2(nd)
		return
	case inB1:
		// Ghost hit in B1: favor recency.
		d := 1
		if p.b1.len() > 0 && p.b2.len()/p.b1.len() > 1 {
			d = p.b2.len() / p.b1.len()
		}
		p.p = min(p.c, p.p+d)
		p.toT2(nd)
		return
	case inB2:
		// Ghost hit in B2: favor frequency.
		d := 1
		if p.b2.len() > 0 && p.b1.len()/p.b2.len() > 1 {
			d = p.b1.len() / p.b2.len()
		}
		p.p = max(0, p.p-d)
		p.toT2(nd)
		return
	}
	// Brand new key: enters T1. Trim ghost lists to the canonical bounds.
	if p.t1.len()+p.b1.len() >= p.c {
		p.dropLRUGhost(&p.b1)
	} else if p.t1.len()+p.t2.len()+p.b1.len()+p.b2.len() >= 2*p.c {
		p.dropLRUGhost(&p.b2)
	}
	nd.key, nd.cost, nd.resident = key, inT1, true
	p.t1.pushFront(nd)
}

// dropLRUGhost forgets the oldest ghost of l, if any.
func (p *arcPolicy) dropLRUGhost(l *list) {
	if nd := l.back; nd != nil {
		l.remove(nd)
		nd.cost = 0
	}
}

// Victim implements Policy, following ARC's REPLACE rule: evict from T1
// when |T1| exceeds the target p, else from T2; within a list, prefer the
// LRU unpinned entry; fall back to the other list if the preferred one is
// fully pinned.
func (p *arcPolicy) Victim(pinned func(int) bool) (int, bool) {
	scan := func(l *list) (int, bool) {
		for nd := l.back; nd != nil; nd = nd.prev {
			if pinned == nil || !pinned(nd.key) {
				return nd.key, true
			}
		}
		return 0, false
	}
	first, second := &p.t1, &p.t2
	if p.t1.len() == 0 || (p.t1.len() <= p.p && p.t2.len() > 0) {
		first, second = &p.t2, &p.t1
	}
	if k, ok := scan(first); ok {
		return k, true
	}
	return scan(second)
}

// Evict implements Policy: the entry retires into the matching ghost
// list.
func (p *arcPolicy) Evict(key int) {
	nd := p.t.get(key)
	if nd == nil || !nd.resident {
		return
	}
	p.listOf(nd.cost).remove(nd)
	nd.resident = false
	if nd.cost == inT1 {
		nd.cost = inB1
		p.b1.pushFront(nd)
	} else {
		nd.cost = inB2
		p.b2.pushFront(nd)
	}
}

// Len implements Policy.
func (p *arcPolicy) Len() int { return p.t1.len() + p.t2.len() }

// Reset implements Policy.
func (p *arcPolicy) Reset() {
	p.t.reset()
	p.t1, p.t2, p.b1, p.b2 = list{}, list{}, list{}, list{}
	p.p = 0
}
