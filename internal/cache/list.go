package cache

// node is an element of an intrusive doubly-linked recency list, generic
// over the key type: the Virtualizer keys entries by file name, the
// experiment replay paths by integer output-step index.
type node[K comparable] struct {
	key        K
	prev, next *node[K]
	// cost is the miss cost for cost-aware schemes; auxiliary state for
	// others (LIRS uses lir/resident flags instead).
	cost int
	// LIRS flags.
	lir      bool
	resident bool
	// BCL/DCL state. bucket is the per-cost list the node is threaded
	// through and seq the recency stamp (larger = more recently used) that
	// orders nodes across those lists; spared marks a DCL entry with a
	// pending depreciation, armed when sparedFor was evicted in its place.
	spared    bool
	seq       uint64
	bucket    *costBucket[K]
	sparedFor K
}

// list is a doubly-linked list with sentinel-free head/tail pointers,
// ordered MRU (front) to LRU (back).
type list[K comparable] struct {
	front, back *node[K]
	n           int
}

func (l *list[K]) pushFront(nd *node[K]) {
	nd.prev = nil
	nd.next = l.front
	if l.front != nil {
		l.front.prev = nd
	}
	l.front = nd
	if l.back == nil {
		l.back = nd
	}
	l.n++
}

func (l *list[K]) pushBack(nd *node[K]) {
	nd.next = nil
	nd.prev = l.back
	if l.back != nil {
		l.back.next = nd
	}
	l.back = nd
	if l.front == nil {
		l.front = nd
	}
	l.n++
}

// insertAfter links nd behind at (towards the LRU end); a nil at means
// the front.
func (l *list[K]) insertAfter(nd, at *node[K]) {
	if at == nil {
		l.pushFront(nd)
		return
	}
	nd.prev, nd.next = at, at.next
	if at.next != nil {
		at.next.prev = nd
	} else {
		l.back = nd
	}
	at.next = nd
	l.n++
}

func (l *list[K]) remove(nd *node[K]) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		l.front = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		l.back = nd.prev
	}
	nd.prev, nd.next = nil, nil
	l.n--
}

func (l *list[K]) moveToFront(nd *node[K]) {
	if l.front == nd {
		return
	}
	l.remove(nd)
	l.pushFront(nd)
}

func (l *list[K]) len() int { return l.n }

// arena is a policy-local free list of recency nodes. Policies recycle
// nodes through it on eviction, removal and reset instead of letting the
// garbage collector reclaim them: a ReplayState reused across the
// repetitions of an experiment cell is pinned to one worker, so after
// the first replay warms the arena the policy churn allocates nothing.
// The singly-linked free chain reuses the nodes' own next pointers.
type arena[K comparable] struct {
	free *node[K]
}

// get returns a zeroed node, reusing a recycled one when available.
func (a *arena[K]) get() *node[K] {
	nd := a.free
	if nd == nil {
		return &node[K]{}
	}
	a.free = nd.next
	*nd = node[K]{}
	return nd
}

// put recycles one node.
func (a *arena[K]) put(nd *node[K]) {
	nd.prev = nil
	nd.next = a.free
	a.free = nd
}

// drain recycles every node of a list and empties it.
func (a *arena[K]) drain(l *list[K]) {
	for nd := l.front; nd != nil; {
		next := nd.next
		a.put(nd)
		nd = next
	}
	*l = list[K]{}
}
