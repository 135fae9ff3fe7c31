package cache

const (
	// maxKey is the largest step a cache admits: core's bound on a
	// timeline (2^28 output steps).
	maxKey = 1 << 28
	// chunkSteps is how many consecutive steps a chunk of a table holds.
	chunkSteps = 1024
)

// node is one step's entry in a policy's table, threaded through the
// policy's intrusive recency lists. It lives inside a table chunk, so it
// is never allocated on its own: a step that comes back reuses its entry.
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

// table holds a policy's nodes indexed by step. A chunk of chunkSteps
// consecutive steps is allocated the first time one of its steps is
// written, like core's step table, and the directory spans only the
// chunks from the lowest step written to the highest: a step near the
// 2^28 bound costs one chunk, not a table sized to the step.
type table struct {
	first  int // chunk index of chunks[0]
	chunks []*[chunkSteps]node
}

// get returns key's node, or nil if its chunk was never written.
func (t *table) get(key int) *node {
	if i := uint(key)/chunkSteps - uint(t.first); i < uint(len(t.chunks)) && t.chunks[i] != nil {
		return &t.chunks[i][key%chunkSteps]
	}
	return nil
}

// at returns the node of a key in [0, maxKey] for writing, allocating
// its chunk, and widening the directory, on first use.
func (t *table) at(key int) *node {
	c := key / chunkSteps
	if len(t.chunks) == 0 {
		t.first = c
	}
	if c < t.first { // widen downwards, at least doubling
		n := min(max(t.first-c, len(t.chunks)), t.first)
		t.chunks = append(make([]*[chunkSteps]node, n, n+len(t.chunks)), t.chunks...)
		t.first -= n
	}
	if n := c - t.first + 1 - len(t.chunks); n > 0 {
		t.chunks = append(t.chunks, make([]*[chunkSteps]node, n)...)
	}
	ch := &t.chunks[c-t.first]
	if *ch == nil {
		*ch = new([chunkSteps]node)
	}
	return &(*ch)[key%chunkSteps]
}

// all yields the node of every step of the written chunks, in step order.
func (t *table) all(yield func(*node) bool) {
	for _, ch := range t.chunks {
		for i := 0; ch != nil && i < chunkSteps; i++ {
			if !yield(&ch[i]) {
				return
			}
		}
	}
}

// reset zeroes every node, keeping the chunks for reuse.
func (t *table) reset() {
	for _, ch := range t.chunks {
		if ch != nil {
			*ch = [chunkSteps]node{}
		}
	}
}
