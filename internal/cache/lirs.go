package cache

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
type lirsOf[K comparable] struct {
	cap   int // total resident capacity (entries)
	lCap  int // target LIR set size
	byKey map[K]*node[K]
	s     list[K] // recency stack, front = most recent
	q     list[K] // resident HIR queue, front = next victim
	// qByKey tracks nodes linked into q via shadow nodes.
	qByKey map[K]*node[K]
	nLIR   int
	ghosts int
	// ar recycles both stack nodes and queue shadow nodes.
	ar arena[K]
}

// newLIRS returns an empty LIRS policy sized for the given capacity in
// entries. The HIR target is 1% of capacity (at least one entry), per the
// original paper's recommendation.
func newLIRS[K comparable](capacity int) *lirsOf[K] {
	if capacity < 2 {
		capacity = 2
	}
	hCap := capacity / 100
	if hCap < 1 {
		hCap = 1
	}
	return &lirsOf[K]{
		cap:    capacity,
		lCap:   capacity - hCap,
		byKey:  map[K]*node[K]{},
		qByKey: map[K]*node[K]{},
	}
}

// Name implements PolicyOf.
func (p *lirsOf[K]) Name() string { return "LIRS" }

// stack nodes are shared between bookkeeping maps; queue membership is
// represented by separate shadow nodes to keep the intrusive links simple.

func (p *lirsOf[K]) inS(nd *node[K]) bool {
	return nd.prev != nil || nd.next != nil || p.s.front == nd
}

// Access implements PolicyOf.
func (p *lirsOf[K]) Access(key K) {
	nd, ok := p.byKey[key]
	if !ok || !nd.resident {
		return
	}
	switch {
	case nd.lir:
		wasBottom := p.s.back == nd
		p.s.moveToFront(nd)
		if wasBottom {
			p.prune()
		}
	case p.inS(nd):
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
		if qn, ok := p.qByKey[key]; ok {
			p.q.remove(qn)
			p.q.pushBack(qn)
		}
	}
}

// Insert implements PolicyOf.
func (p *lirsOf[K]) Insert(key K, cost int) {
	if nd, ok := p.byKey[key]; ok && nd.resident {
		p.Access(key)
		return
	}
	if nd, ok := p.byKey[key]; ok {
		// Non-resident ghost on the stack: its reuse distance beats the
		// deepest LIR entry — promote to LIR.
		nd.resident = true
		p.ghosts--
		if p.inS(nd) {
			p.s.moveToFront(nd)
			nd.lir = true
			p.nLIR++
			p.demoteIfNeeded()
			p.prune()
			return
		}
		// Ghost fully aged out of the stack: treat as brand new below.
		delete(p.byKey, key)
		p.ar.put(nd)
	}
	nd := p.ar.get()
	nd.key, nd.resident = key, true
	p.byKey[key] = nd
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

// Victim implements PolicyOf: the front of Q; if every queued entry is
// pinned, fall back to the deepest unpinned LIR entry on the stack.
func (p *lirsOf[K]) Victim(pinned func(K) bool) (K, bool) {
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
	var zero K
	return zero, false
}

// Evict implements PolicyOf: the entry becomes a non-resident ghost if it
// is still on the stack (so LIRS can observe its reuse distance);
// otherwise it is forgotten.
func (p *lirsOf[K]) Evict(key K) {
	nd, ok := p.byKey[key]
	if !ok || !nd.resident {
		return
	}
	p.dequeue(key)
	if nd.lir {
		nd.lir = false
		p.nLIR--
	}
	nd.resident = false
	if p.inS(nd) {
		p.ghosts++
		p.prune()
		p.bound()
	} else {
		delete(p.byKey, key)
		p.ar.put(nd)
	}
}

// Contains implements PolicyOf.
func (p *lirsOf[K]) Contains(key K) bool {
	nd, ok := p.byKey[key]
	return ok && nd.resident
}

// Len implements PolicyOf.
func (p *lirsOf[K]) Len() int {
	n := 0
	for _, nd := range p.byKey {
		if nd.resident {
			n++
		}
	}
	return n
}

// Reset implements PolicyOf.
func (p *lirsOf[K]) Reset() {
	// Every stack node lives in byKey (resident HIR entries off the stack
	// included), so recycling byKey's values covers the stack; the queue
	// holds only shadow nodes, recycled by draining it.
	for _, nd := range p.byKey { //simfs:allow maporder free-list recycling permutes identical zeroed nodes only
		p.ar.put(nd)
	}
	clear(p.byKey)
	clear(p.qByKey)
	p.s = list[K]{}
	p.ar.drain(&p.q)
	p.nLIR = 0
	p.ghosts = 0
}

// demoteIfNeeded demotes the bottom LIR entry to resident HIR when the LIR
// set exceeds its target size.
func (p *lirsOf[K]) demoteIfNeeded() {
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
		if bottom.resident {
			p.enqueue(bottom.key)
		} else {
			delete(p.byKey, bottom.key)
			p.ghosts--
			p.ar.put(bottom)
		}
		p.prune()
	}
}

// prune removes non-LIR entries from the stack bottom, forgetting ghosts
// that fall off.
func (p *lirsOf[K]) prune() {
	for p.s.back != nil && !p.s.back.lir {
		nd := p.s.back
		p.s.remove(nd)
		if !nd.resident {
			p.ghosts--
			delete(p.byKey, nd.key)
			p.ar.put(nd)
		}
		// Resident HIR entries falling off the stack stay in the queue
		// and in byKey.
	}
}

// bound caps ghost metadata at 2× capacity by aging the deepest ghosts.
func (p *lirsOf[K]) bound() {
	for p.ghosts > 2*p.cap {
		var oldest *node[K]
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
		delete(p.byKey, oldest.key)
		p.ghosts--
		p.ar.put(oldest)
	}
}

func (p *lirsOf[K]) enqueue(key K) {
	if _, ok := p.qByKey[key]; ok {
		return
	}
	qn := p.ar.get()
	qn.key = key
	p.qByKey[key] = qn
	p.q.pushBack(qn)
}

func (p *lirsOf[K]) dequeue(key K) {
	if qn, ok := p.qByKey[key]; ok {
		p.q.remove(qn)
		delete(p.qByKey, key)
		p.ar.put(qn)
	}
}
