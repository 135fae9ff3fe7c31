package cache

import "simfs/internal/model"

// LIRS (Low Inter-reference Recency Set, Jiang & Zhang, SIGMETRICS 2002)
// partitions resident entries into LIR (low inter-reference recency, the
// protected majority) and HIR (high inter-reference recency) sets. It
// maintains the classic two structures:
//
//   - stack S: entries ordered by recency, holding LIR entries, resident
//     HIR entries, and non-resident HIR "ghosts" whose reuse distance is
//     still being observed;
//   - queue Q: resident HIR entries, the eviction candidates (front =
//     next victim).
//
// A HIR entry accessed while still on S has, by definition, an
// inter-reference recency smaller than the deepest LIR entry, so it is
// promoted to LIR and the bottom LIR entry is demoted to HIR. The stack is
// pruned so its bottom is always LIR. Ghost entries in S are bounded to
// 2× capacity to cap metadata.
type lirsPolicy struct {
	cap  int // total resident capacity (entries)
	lCap int // target LIR set size
	// t holds the stack entries; an entry is known while it is resident
	// or on the stack. Queue membership is represented by shadow nodes in
	// qt, to keep the intrusive links simple.
	t, qt  model.Table[node]
	s      list // recency stack, front = most recent
	q      list // resident HIR queue, front = next victim
	n      int  // resident entries
	nLIR   int
	ghosts int
}

// newLIRS returns an empty LIRS policy sized for the given capacity in
// entries. The HIR target is 1% of capacity (at least one entry), per the
// original paper's recommendation.
func newLIRS(capacity int) *lirsPolicy {
	capacity = max(capacity, 2)
	return &lirsPolicy{cap: capacity, lCap: capacity - max(capacity/100, 1)}
}

// Name implements Policy.
func (p *lirsPolicy) Name() string { return "LIRS" }

func (p *lirsPolicy) steps() *model.Table[node] { return &p.t }

// Access implements Policy.
func (p *lirsPolicy) Access(key int) {
	nd := p.t.Get(key)
	if nd == nil || !nd.resident {
		return
	}
	switch {
	case nd.lir:
		wasBottom := p.s.back == nd
		p.s.moveToFront(nd)
		if wasBottom {
			p.prune()
		}
	case p.s.has(nd):
		// Resident HIR hit while on the stack: promote to LIR.
		p.s.moveToFront(nd)
		nd.lir = true
		p.nLIR++
		p.dequeue(key)
		p.demoteIfNeeded()
		p.prune()
	default:
		// Resident HIR hit, not on the stack: re-enter the stack, stay
		// HIR, move to the queue tail.
		p.s.pushFront(nd)
		if qn := p.qt.Get(key); qn != nil && p.q.has(qn) {
			p.q.remove(qn)
			p.q.pushBack(qn)
		}
	}
}

// Insert implements Policy.
func (p *lirsPolicy) Insert(key, cost int) {
	nd := p.t.At(key)
	if nd.resident {
		p.Access(key)
		return
	}
	nd.key, nd.resident = key, true
	p.n++
	if p.s.has(nd) {
		// Non-resident ghost on the stack: its reuse distance beats the
		// deepest LIR entry — promote to LIR.
		p.ghosts--
		p.s.moveToFront(nd)
		nd.lir = true
		p.nLIR++
		p.demoteIfNeeded()
		p.prune()
		return
	}
	if p.nLIR < p.lCap {
		// Cold start: fill the LIR set first.
		nd.lir = true
		p.nLIR++
		p.s.pushFront(nd)
		return
	}
	// New entries start as resident HIR: on the stack and in the queue.
	p.s.pushFront(nd)
	p.enqueue(key)
	p.bound()
}

// Victim implements Policy: the front of Q; if every queued entry is
// pinned, fall back to the deepest unpinned LIR entry on the stack.
func (p *lirsPolicy) Victim(pinned func(int) bool) (int, bool) {
	for qn := p.q.front; qn != nil; qn = qn.next {
		if pinned == nil || !pinned(qn.key) {
			return qn.key, true
		}
	}
	for nd := p.s.back; nd != nil; nd = nd.prev {
		if nd.resident && (pinned == nil || !pinned(nd.key)) {
			return nd.key, true
		}
	}
	return 0, false
}

// Evict implements Policy: the entry becomes a non-resident ghost if it
// is still on the stack (so LIRS can observe its reuse distance);
// otherwise it is forgotten.
func (p *lirsPolicy) Evict(key int) {
	nd := p.t.Get(key)
	if nd == nil || !nd.resident {
		return
	}
	p.dequeue(key)
	if nd.lir {
		nd.lir = false
		p.nLIR--
	}
	nd.resident = false
	p.n--
	if p.s.has(nd) {
		p.ghosts++
		p.prune()
		p.bound()
	}
}

// Len implements Policy.
func (p *lirsPolicy) Len() int { return p.n }

// Reset implements Policy.
func (p *lirsPolicy) Reset() {
	p.t.Reset()
	p.qt.Reset()
	p.s, p.q = list{}, list{}
	p.n, p.nLIR, p.ghosts = 0, 0, 0
}

// demoteIfNeeded demotes the bottom LIR entry to resident HIR when the LIR
// set exceeds its target size. LIR entries are resident: Evict clears
// the flag.
func (p *lirsPolicy) demoteIfNeeded() {
	for p.nLIR > p.lCap {
		bottom := p.s.back
		for bottom != nil && !bottom.lir {
			bottom = bottom.prev
		}
		if bottom == nil {
			return
		}
		bottom.lir = false
		p.nLIR--
		p.s.remove(bottom)
		p.enqueue(bottom.key)
		p.prune()
	}
}

// prune removes non-LIR entries from the stack bottom, forgetting ghosts
// that fall off. Resident HIR entries falling off the stack stay in the
// queue.
func (p *lirsPolicy) prune() {
	for p.s.back != nil && !p.s.back.lir {
		nd := p.s.back
		p.s.remove(nd)
		if !nd.resident {
			p.ghosts--
		}
	}
}

// bound caps ghost metadata at 2× capacity by aging the deepest ghosts.
func (p *lirsPolicy) bound() {
	for p.ghosts > 2*p.cap {
		var oldest *node
		for nd := p.s.back; nd != nil; nd = nd.prev {
			if !nd.resident {
				oldest = nd
				break
			}
		}
		if oldest == nil {
			return
		}
		p.s.remove(oldest)
		p.ghosts--
	}
}

func (p *lirsPolicy) enqueue(key int) {
	if qn := p.qt.At(key); !p.q.has(qn) {
		qn.key = key
		p.q.pushBack(qn)
	}
}

func (p *lirsPolicy) dequeue(key int) {
	if qn := p.qt.Get(key); qn != nil && p.q.has(qn) {
		p.q.remove(qn)
	}
}
