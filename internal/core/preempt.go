// Preemption: when the scheduler's node budget is exhausted and a demand
// miss is queued behind it, the Virtualizer may kill a running agent
// prefetch and hand its nodes to the demand work (paper follow-up to
// Sec. IV-C: a demand miss outranks speculative work; with preemption it
// may also evict it). Victim eligibility follows the paper's no-waiters
// rule — a simulation whose output someone waits for or references is
// never killed — and the victim's interval is requeued, so the
// speculative work is deferred, not discarded. The victim order is
// youngest first (sched.PreemptYoungest).
package core

import (
	"time"

	"simfs/internal/notify"
	"simfs/internal/sched"
)

// maybePreempt kills running agent prefetches while a node-blocked
// demand job wants their nodes. At most one victim is killed per
// WantsPreemption pass: its nodes count as reclaimed-in-flight, so a
// single blocked demand job never cascades into killing several victims
// at once — the next pass only fires if the freed nodes are still not
// enough. A failed kill (the chosen victim finished, grew waiters, or
// was taken by a concurrent probe on the realtime server) loops back
// through WantsPreemption rather than falling through to the next
// candidate: the re-check sees any concurrent kill's reclaiming nodes
// before another sim dies, and the next scan no longer finds the stale
// victim, so the retry makes progress. Must be called with no shard lock
// held; the fast path is two atomic loads when preemption is off or no
// demand work is queued.
func (v *Virtualizer) maybePreempt() {
	for v.sched.WantsPreemption() {
		cs, simID := v.youngestVictim()
		if cs == nil {
			return // nothing eligible: wait for natural completions
		}
		v.killVictim(cs, simID)
	}
}

// youngestVictim finds the preemption victim across all shards, or a nil
// shard when there is none. A candidate is launched, has no kill
// (preemption or cancellation) already in flight, is speculative agent
// work (a guided prefetch is an explicit client hint, demand work has a
// client blocked on it), and — the no-waiters rule — nobody waits for or
// references its range. Of the candidates it keeps the youngest (sched's
// only victim order), the latest launch, with ties going to the higher
// simulation id: a total order, so the map-random scan order is washed
// out.
func (v *Virtualizer) youngestVictim() (*shard, int64) {
	var best *shard
	var bestID int64
	var bestAt time.Duration
	for _, cs := range v.contexts() { //simfs:allow maporder the victim order is total (launch instant, then sim id), so scan order is washed out
		cs.mu.Lock()
		for id, sim := range cs.sims { //simfs:allow maporder the victim order is total (launch instant, then sim id), so scan order is washed out
			if !sim.launched || sim.preempted || sim.killing || sim.class != sched.Agent {
				continue
			}
			if best != nil && (sim.launchedAt < bestAt || sim.launchedAt == bestAt && id < bestID) {
				continue
			}
			if v.anyoneNeeds(cs, sim.first, sim.last) {
				continue
			}
			best, bestID, bestAt = cs, id, sim.launchedAt
		}
		cs.mu.Unlock()
	}
	return best, bestID
}

// killVictim re-validates a candidate under its shard lock — it may have
// completed, been preempted by a concurrent pass, been dealt a
// cancellation kill or acquired waiters between selection and kill —
// and kills it. The launcher delivers the death asynchronously;
// SimEnded sees sim.preempted and requeues the interval instead of
// failing its promises.
func (v *Virtualizer) killVictim(cs *shard, simID int64) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sim, ok := cs.sims[simID]
	if !ok || sim.preempted || sim.killing || !sim.launched {
		return false
	}
	if v.anyoneNeeds(cs, sim.first, sim.last) {
		return false
	}
	sim.preempted = true
	v.sched.MarkPreempted(sim.parallelism)
	v.launcher.Kill(simID)
	return true
}

// requeuePreempted puts a preempted simulation's interval back on the
// queue, restoring pending markers so late-arriving waiters are served
// by the requeued job. The job keeps its original class unless waiters
// or references arrived in the kill→SimEnded window — demand interest
// exists now, so it requeues at demand class rather than parking that
// interest behind the agent queue under sustained contention. A
// draining context gets the normal kill treatment instead (no new work
// may queue); a range that became fully covered meanwhile needs
// nothing. The returned waiters follow the failPromised contract (none
// on the requeue path). Caller holds the shard lock.
func (v *Virtualizer) requeuePreempted(cs *shard, sim *simState) []notify.Waiter {
	if cs.draining {
		return v.failPromised(cs, sim)
	}
	clearPromised(cs, sim.first, sim.last, sim.id)
	if !v.uncovered(cs, sim.first, sim.last) {
		// Every step is resident or promised by another simulation:
		// nothing left to requeue, nothing orphaned.
		return nil
	}
	class := sim.class
	if v.anyoneNeeds(cs, sim.first, sim.last) {
		class = sched.Demand
	}
	v.sched.Enqueue(sched.Request{
		Ctx: cs.ctx.Name, First: sim.first, Last: sim.last,
		Parallelism: sim.parallelism, Class: class, Client: sim.client,
	})
	v.markPromised(cs, sim.first, sim.last, pendingSimID)
	return nil
}
