package cache

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
