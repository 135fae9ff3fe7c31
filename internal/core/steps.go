package core

import "math"

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

// step returns a step's entry. A step never written, or one off the
// timeline (lockedStep parses names without a range check), is neither
// promised nor referenced.
func (cs *shard) step(step int) stepState {
	if st := cs.steps.Get(step); st != nil {
		return *st
	}
	return stepState{}
}
