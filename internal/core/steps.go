package core

import "math"

const (
	// maxOutputSteps is the longest timeline AddContext registers. The
	// step table's directory, one pointer per chunk, is sized to the
	// timeline up front: at this bound it is 2 MiB.
	maxOutputSteps = 1 << 28
	// stepsPerChunk is how many entries a chunk of a step table holds.
	stepsPerChunk = 1024
)

// stepState is what a shard knows of one output step besides residency.
// It holds no pointers, so the garbage collector never scans a chunk.
type stepState struct {
	// owner is the simulation that will produce the step while promised
	// is set. Pipeline- or smax-pending simulations promise steps too, so
	// coverage queries see them.
	owner int64
	// refs counts the references clients and downstream pipeline
	// simulations hold on the step (paper Sec. III-A: a step can be
	// evicted only while it is zero).
	refs     int32
	promised bool
	// produced records that a re-simulation once wrote the step, for the
	// cache-pollution signal.
	produced bool
}

// pin counts one more reference. A count that reaches math.MaxInt32
// stays there and the step stays pinned for good: wrapping would let the
// cache evict a step that is still referenced.
func (st *stepState) pin() {
	if st.refs < math.MaxInt32 {
		st.refs++
	}
}

// unpin drops one reference from a positive count; a saturated count
// stays (see pin).
func (st *stepState) unpin() {
	if st.refs < math.MaxInt32 {
		st.refs--
	}
}

// stepTable is a shard's per-step ledger, indexed by output step 1..n
// (entry 0 is unused). A chunk of stepsPerChunk consecutive entries is
// allocated the first time one of its steps is written, because a long
// timeline is mostly never touched and registering a context should cost
// next to nothing.
type stepTable []*[stepsPerChunk]stepState

// newStepTable returns the table of a timeline of n output steps.
func newStepTable(n int) stepTable { return make(stepTable, n/stepsPerChunk+1) }

// get returns a step's entry. A step never written, or one off the
// timeline (lockedStep parses names without a range check), is neither
// promised nor referenced.
func (t stepTable) get(step int) stepState {
	if c := uint(step) / stepsPerChunk; c < uint(len(t)) && t[c] != nil {
		return t[c][step%stepsPerChunk]
	}
	return stepState{}
}

// at returns a step on the timeline's entry for writing, allocating its
// chunk on first use.
func (t stepTable) at(step int) *stepState {
	c := &t[step/stepsPerChunk]
	if *c == nil {
		*c = new([stepsPerChunk]stepState)
	}
	return &(*c)[step%stepsPerChunk]
}

// all yields every allocated entry with its step, in step order.
func (t stepTable) all(yield func(int, stepState) bool) {
	for c, chunk := range t {
		for i := 0; chunk != nil && i < stepsPerChunk; i++ {
			if !yield(c*stepsPerChunk+i, chunk[i]) {
				return
			}
		}
	}
}
