package model

// MaxSteps is the longest timeline a context may have (Context.Validate
// refuses a longer one) and so the largest step a Table is written at.
const MaxSteps = 1 << 28

// stepsPerChunk is how many consecutive steps a chunk of a Table holds.
const stepsPerChunk = 1024

// Table holds one T per output step, indexed by step. A chunk of
// stepsPerChunk consecutive steps is allocated the first time one of its
// steps is written, because a long timeline is mostly never touched, and
// the directory spans only the chunks from the lowest step written to the
// highest: a step near MaxSteps costs one chunk and a one-slot directory,
// not a table sized to the timeline. The zero Table is empty.
type Table[T any] struct {
	first  int // chunk index of chunks[0]
	chunks []*[stepsPerChunk]T
}

// Get returns step's entry, or nil if its chunk was never written. A step
// off the timeline, negative ones included, reads as never written.
func (t *Table[T]) Get(step int) *T {
	if i := uint(step)/stepsPerChunk - uint(t.first); i < uint(len(t.chunks)) && t.chunks[i] != nil {
		return &t.chunks[i][step%stepsPerChunk]
	}
	return nil
}

// At returns the entry of a step in [0, MaxSteps] for writing, allocating
// its chunk, and widening the directory, on first use.
func (t *Table[T]) At(step int) *T {
	c := step / stepsPerChunk
	if len(t.chunks) == 0 {
		t.first = c
	}
	if c < t.first { // widen downwards, at least doubling
		n := min(max(t.first-c, len(t.chunks)), t.first)
		t.chunks = append(make([]*[stepsPerChunk]T, n, n+len(t.chunks)), t.chunks...)
		t.first -= n
	}
	if n := c - t.first + 1 - len(t.chunks); n > 0 {
		t.chunks = append(t.chunks, make([]*[stepsPerChunk]T, n)...)
	}
	ch := &t.chunks[c-t.first]
	if *ch == nil {
		*ch = new([stepsPerChunk]T)
	}
	return &(*ch)[step%stepsPerChunk]
}

// All yields every step of the written chunks with its entry, in step
// order.
func (t *Table[T]) All(yield func(int, *T) bool) {
	for i, ch := range t.chunks {
		for j := 0; ch != nil && j < stepsPerChunk; j++ {
			if !yield((t.first+i)*stepsPerChunk+j, &ch[j]) {
				return
			}
		}
	}
}

// Reset zeroes every entry, keeping the chunks for reuse.
func (t *Table[T]) Reset() {
	for _, ch := range t.chunks {
		if ch != nil {
			*ch = [stepsPerChunk]T{}
		}
	}
}
