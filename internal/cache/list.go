package cache

// node is one step's entry in a policy's step table, threaded through
// the policy's intrusive recency lists. It lives inside a table chunk, so
// it is never allocated on its own: a step that comes back reuses its
// entry.
type node struct {
	key        int
	prev, next *node
	// cost is the miss cost for BCL/DCL; ARC keeps the list the node is
	// on there instead (0: none).
	cost int
	// size is the step's byte size while it is resident. The engine
	// writes it; the policies never do.
	size int64
	// resident is set while the cache holds the step. Every policy sets
	// it on Insert and clears it on Evict, and the engine reads residency
	// from it.
	resident bool
	// lir marks a LIRS entry in the LIR set.
	lir bool
	// BCL/DCL state. bucket is the per-cost list the node is threaded
	// through and seq the recency stamp (larger = more recently used) that
	// orders nodes across those lists. A DCL entry spared in favour of
	// evicting a victim points at the victim's entry through sparedFor;
	// the victim's entry points back through deprOf and holds the
	// depreciation, deprBy, that fires if the victim is missed on again.
	seq       uint64
	bucket    *costBucket
	sparedFor *node
	deprOf    *node
	deprBy    int
}

// list is a doubly-linked list of table nodes with sentinel-free
// head/tail pointers, ordered MRU (front) to LRU (back).
type list struct {
	front, back *node
	n           int
}

func (l *list) pushFront(nd *node) {
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

func (l *list) pushBack(nd *node) {
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
func (l *list) insertAfter(nd, at *node) {
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

func (l *list) remove(nd *node) {
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

func (l *list) moveToFront(nd *node) {
	if l.front == nd {
		return
	}
	l.remove(nd)
	l.pushFront(nd)
}

// has reports whether nd is linked into l, given that a node is on at
// most one list at a time.
func (l *list) has(nd *node) bool { return nd.prev != nil || nd.next != nil || l.front == nd }

func (l *list) len() int { return l.n }
