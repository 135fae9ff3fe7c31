package cache

import "simfs/internal/model"

// lruPolicy is the Least-Recently-Used replacement scheme: the victim
// is the resident entry whose last access is the furthest in the past.
type lruPolicy struct {
	t   model.Table[node]
	rec list // MRU front … LRU back
}

func newLRU() *lruPolicy { return &lruPolicy{} }

// Name implements Policy.
func (p *lruPolicy) Name() string { return "LRU" }

func (p *lruPolicy) steps() *model.Table[node] { return &p.t }

// Access implements Policy.
func (p *lruPolicy) Access(key int) {
	if nd := p.t.Get(key); nd != nil && nd.resident {
		p.rec.moveToFront(nd)
	}
}

// Insert implements Policy.
func (p *lruPolicy) Insert(key, cost int) {
	nd := p.t.At(key)
	if nd.resident {
		p.rec.moveToFront(nd)
		return
	}
	nd.key, nd.resident = key, true
	p.rec.pushFront(nd)
}

// Victim implements Policy: the least recently used unpinned entry.
func (p *lruPolicy) Victim(pinned func(int) bool) (int, bool) {
	for nd := p.rec.back; nd != nil; nd = nd.prev {
		if pinned == nil || !pinned(nd.key) {
			return nd.key, true
		}
	}
	return 0, false
}

// Evict implements Policy.
func (p *lruPolicy) Evict(key int) {
	if nd := p.t.Get(key); nd != nil && nd.resident {
		p.rec.remove(nd)
		nd.resident = false
	}
}

// Len implements Policy.
func (p *lruPolicy) Len() int { return p.rec.len() }

// Reset implements Policy.
func (p *lruPolicy) Reset() {
	p.t.Reset()
	p.rec = list{}
}
