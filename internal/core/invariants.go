package core

// The audit walks the step table in step order and every other ledger
// over sorted keys: with several violations present, which one is
// reported must not depend on map iteration order, or a failing property
// test prints a different counterexample on every run.

import (
	"fmt"
	"maps"
	"slices"
)

// CheckInvariants audits the Virtualizer's internal consistency. It is
// primarily exercised by the property tests, but can be called in
// production (it only reads state under each shard's lock) when
// debugging. Shards are audited one at a time, so under concurrent load
// the check is per-shard consistent rather than a global snapshot.
//
// Invariants (per shard):
//
//  1. A step is never both resident and promised.
//  2. Every promise has an owner: it points at a live simulation, or it
//     is a pending marker lying inside the range of a job queued in the
//     scheduler — a failed simulation's retry included, relaunched
//     through the scheduler in the SimEnded hold that granted it. A
//     pending marker nobody owns is a promise no simulation will ever
//     keep — its watchers would wait forever. The one window this cannot
//     cover is drainScheduler between popping a job off the scheduler
//     and clearing its markers under the shard lock; an audit racing
//     with such a pass (Virtualizer.admitting > 0) skips the ownership
//     half rather than report the job in transit.
//  3. Reference counts are never negative; a referenced resident step is
//     never an eviction victim — by construction, the cache's guard is
//     the count.
//  4. The cache never exceeds its capacity unless references forced an
//     overflow.
//  5. Every simulation in the shard table has a well-formed range and
//     belongs to this shard's context.
//  6. No waiter waits for a resident step, and a waiter waits only for a
//     promised, in-flight step unless a readiness stream registered it (a
//     stream may also wait on a file whose producer is asked later).
//  7. No step is promised by a simulation with a kill in flight: a kill
//     core issues settles the run's promises in the hold that issues it
//     (cleared, or handed to a preemption's requeued job), so nobody
//     joins a run that will not produce.
func (v *Virtualizer) CheckInvariants() error {
	if err := v.sched.CheckInvariants(); err != nil {
		return err
	}
	shards := v.contexts()
	for _, name := range slices.Sorted(maps.Keys(shards)) {
		if err := v.checkShard(name, shards[name]); err != nil {
			return err
		}
	}
	return nil
}

func (v *Virtualizer) checkShard(name string, cs *shard) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()

	// The owners of pending markers. Read before admitting (below): a job
	// missing here because a drain pass popped it is still counted there.
	owners := v.sched.QueuedRanges(name)
	for step, st := range cs.steps.All {
		if st.refs < 0 {
			return fmt.Errorf("core: %s step %d has negative refcount %d", name, step, st.refs)
		}
		if !st.promised {
			continue
		}
		if cs.resident(step) {
			return fmt.Errorf("core: %s step %d both resident and promised", name, step)
		}
		if st.owner == pendingSimID {
			owned := slices.ContainsFunc(owners, func(r [2]int) bool { return r[0] <= step && step <= r[1] })
			if !owned && v.admitting.Load() == 0 {
				return fmt.Errorf("core: %s step %d pending with no queued job behind it", name, step)
			}
			continue
		}
		sim, ok := cs.sims[st.owner]
		if !ok {
			return fmt.Errorf("core: %s step %d promised by unknown simulation %d", name, step, st.owner)
		}
		if sim.killing {
			return fmt.Errorf("core: %s step %d promised by killed simulation %d", name, step, st.owner)
		}
	}
	if max := cs.cache.MaxBytes(); max > 0 && cs.cache.UsedBytes() > max {
		if cs.cache.Stats().PinBlocked == 0 {
			return fmt.Errorf("core: %s cache over capacity (%d > %d) without pin pressure",
				name, cs.cache.UsedBytes(), max)
		}
	}
	for _, id := range slices.Sorted(maps.Keys(cs.sims)) {
		sim := cs.sims[id]
		if sim.first > sim.last || sim.first < 1 {
			return fmt.Errorf("core: simulation %d has malformed range [%d,%d]", id, sim.first, sim.last)
		}
	}
	for _, w := range v.hub.Waiters(name) {
		if step := w.Topic.Step; cs.resident(step) {
			return fmt.Errorf("core: %s step %d resident but client %q still waits", name, step, w.Client)
		} else if !cs.step(step).promised && !w.StreamOwned() {
			return fmt.Errorf("core: %s step %d has waiter %q but no promise", name, step, w.Client)
		}
	}
	return nil
}
