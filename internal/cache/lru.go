package cache

// lruOf is the Least-Recently-Used replacement scheme: the victim is the
// resident entry whose last access is the furthest in the past.
type lruOf[K comparable] struct {
	byKey map[K]*node[K]
	rec   list[K] // MRU front … LRU back
	ar    arena[K]
}

func newLRU[K comparable]() *lruOf[K] {
	return &lruOf[K]{byKey: map[K]*node[K]{}}
}

// Name implements PolicyOf.
func (p *lruOf[K]) Name() string { return "LRU" }

// Access implements PolicyOf.
func (p *lruOf[K]) Access(key K) {
	if nd, ok := p.byKey[key]; ok {
		p.rec.moveToFront(nd)
	}
}

// Insert implements PolicyOf.
func (p *lruOf[K]) Insert(key K, cost int) {
	if nd, ok := p.byKey[key]; ok {
		p.rec.moveToFront(nd)
		return
	}
	nd := p.ar.get()
	nd.key, nd.cost = key, cost
	p.byKey[key] = nd
	p.rec.pushFront(nd)
}

// Victim implements PolicyOf: the least recently used unpinned entry.
func (p *lruOf[K]) Victim(pinned func(K) bool) (K, bool) {
	for nd := p.rec.back; nd != nil; nd = nd.prev {
		if pinned == nil || !pinned(nd.key) {
			return nd.key, true
		}
	}
	var zero K
	return zero, false
}

// Evict implements PolicyOf.
func (p *lruOf[K]) Evict(key K) { p.Remove(key) }

// Remove implements PolicyOf.
func (p *lruOf[K]) Remove(key K) {
	if nd, ok := p.byKey[key]; ok {
		p.rec.remove(nd)
		delete(p.byKey, key)
		p.ar.put(nd)
	}
}

// Contains implements PolicyOf.
func (p *lruOf[K]) Contains(key K) bool { _, ok := p.byKey[key]; return ok }

// Len implements PolicyOf.
func (p *lruOf[K]) Len() int { return p.rec.len() }

// Reset implements PolicyOf.
func (p *lruOf[K]) Reset() {
	clear(p.byKey)
	p.ar.drain(&p.rec)
}
