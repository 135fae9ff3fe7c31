package cache

// ARC (Adaptive Replacement Cache, Megiddo & Modha, FAST 2003) keeps two
// resident lists — T1 for entries seen once recently, T2 for entries seen
// at least twice — plus ghost lists B1 and B2 remembering recently evicted
// keys from each. A hit in B1 (resp. B2) grows (resp. shrinks) the
// adaptation target p, shifting capacity between recency and frequency at
// runtime "in order to adapt to the observed access pattern" (paper
// Sec. III-D).
type arcOf[K comparable] struct {
	c     int // capacity in entries
	p     int // target size of T1
	t1    list[K]
	t2    list[K]
	b1    list[K]
	b2    list[K]
	where map[K]*node[K]
	ar    arena[K]
}

// arcList identifies which of the four lists a node is on; it is stored
// in the node's cost field (ARC is cost-oblivious), which spares a
// per-entry wrapper allocation.
type arcList = int

const (
	inT1 arcList = iota
	inT2
	inB1
	inB2
)

// newARC returns an empty ARC policy with the given capacity in entries.
func newARC[K comparable](capacity int) *arcOf[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &arcOf[K]{c: capacity, where: map[K]*node[K]{}}
}

// Name implements PolicyOf.
func (p *arcOf[K]) Name() string { return "ARC" }

func (p *arcOf[K]) listOf(l arcList) *list[K] {
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

// Access implements PolicyOf: a hit moves the entry to the MRU position
// of T2.
func (p *arcOf[K]) Access(key K) {
	nd, ok := p.where[key]
	if !ok || (nd.cost != inT1 && nd.cost != inT2) {
		return
	}
	p.listOf(nd.cost).remove(nd)
	nd.cost = inT2
	p.t2.pushFront(nd)
}

// Insert implements PolicyOf. Ghost hits adapt the target p exactly as in
// the original algorithm; the engine performs the actual eviction via
// Victim/Evict, so REPLACE here only trims ghost lists.
func (p *arcOf[K]) Insert(key K, cost int) {
	if nd, ok := p.where[key]; ok {
		switch nd.cost {
		case inT1, inT2:
			p.Access(key)
			return
		case inB1:
			// Ghost hit in B1: favor recency.
			d := 1
			if p.b1.len() > 0 && p.b2.len()/p.b1.len() > 1 {
				d = p.b2.len() / p.b1.len()
			}
			p.p = min(p.c, p.p+d)
			p.b1.remove(nd)
			nd.cost = inT2
			p.t2.pushFront(nd)
			return
		case inB2:
			// Ghost hit in B2: favor frequency.
			d := 1
			if p.b2.len() > 0 && p.b1.len()/p.b2.len() > 1 {
				d = p.b1.len() / p.b2.len()
			}
			p.p = max(0, p.p-d)
			p.b2.remove(nd)
			nd.cost = inT2
			p.t2.pushFront(nd)
			return
		}
	}
	// Brand new key: enters T1. Trim ghost lists to the canonical bounds.
	if p.t1.len()+p.b1.len() >= p.c {
		if p.b1.len() > 0 {
			p.dropLRUGhost(&p.b1)
		}
	} else if p.t1.len()+p.t2.len()+p.b1.len()+p.b2.len() >= 2*p.c {
		if p.b2.len() > 0 {
			p.dropLRUGhost(&p.b2)
		}
	}
	nd := p.ar.get()
	nd.key, nd.cost = key, inT1
	p.where[key] = nd
	p.t1.pushFront(nd)
}

func (p *arcOf[K]) dropLRUGhost(l *list[K]) {
	nd := l.back
	if nd == nil {
		return
	}
	l.remove(nd)
	delete(p.where, nd.key)
	p.ar.put(nd)
}

// Victim implements PolicyOf, following ARC's REPLACE rule: evict from T1
// when |T1| exceeds the target p, else from T2; within a list, prefer the
// LRU unpinned entry; fall back to the other list if the preferred one is
// fully pinned.
func (p *arcOf[K]) Victim(pinned func(K) bool) (K, bool) {
	scan := func(l *list[K]) (K, bool) {
		for nd := l.back; nd != nil; nd = nd.prev {
			if pinned == nil || !pinned(nd.key) {
				return nd.key, true
			}
		}
		var zero K
		return zero, false
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

// Evict implements PolicyOf: the entry retires into the matching ghost
// list.
func (p *arcOf[K]) Evict(key K) {
	nd, ok := p.where[key]
	if !ok {
		return
	}
	switch nd.cost {
	case inT1:
		p.t1.remove(nd)
		nd.cost = inB1
		p.b1.pushFront(nd)
	case inT2:
		p.t2.remove(nd)
		nd.cost = inB2
		p.b2.pushFront(nd)
	}
}

// Remove implements PolicyOf.
func (p *arcOf[K]) Remove(key K) {
	nd, ok := p.where[key]
	if !ok {
		return
	}
	p.listOf(nd.cost).remove(nd)
	delete(p.where, key)
	p.ar.put(nd)
}

// Contains implements PolicyOf.
func (p *arcOf[K]) Contains(key K) bool {
	nd, ok := p.where[key]
	return ok && (nd.cost == inT1 || nd.cost == inT2)
}

// Len implements PolicyOf.
func (p *arcOf[K]) Len() int { return p.t1.len() + p.t2.len() }

// Reset implements PolicyOf.
func (p *arcOf[K]) Reset() {
	clear(p.where)
	p.ar.drain(&p.t1)
	p.ar.drain(&p.t2)
	p.ar.drain(&p.b1)
	p.ar.drain(&p.b2)
	p.p = 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
