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
			if !sim.launched || sim.killing || sim.class != sched.Agent {
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
// completed, been dealt a kill by a concurrent pass or a cancellation,
// or acquired waiters between selection and kill — and kills it. Its
// interval is requeued in the same hold, before the launcher delivers
// the death.
func (v *Virtualizer) killVictim(cs *shard, simID int64) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sim, ok := cs.sims[simID]
	if !ok || sim.killing || !sim.launched {
		return false
	}
	if v.anyoneNeeds(cs, sim.first, sim.last) {
		return false
	}
	sim.preempted, sim.killing = true, true
	v.sched.MarkPreempted(sim.parallelism)
	v.launcher.Kill(simID)
	v.requeuePreempted(cs, sim)
	return true
}

// requeuePreempted hands a preemption victim's promises to a requeued job
// of its interval, class and client: they become the job's pending
// markers, so an open that lands before the victim's SimEnded joins the
// queued job like any queued prefetch. A draining context queues nothing
// new, and a range covered elsewhere needs nothing; the victim's
// promises go either way, and nobody waits on them, or it would not be a
// victim. Caller holds the shard lock.
func (v *Virtualizer) requeuePreempted(cs *shard, sim *simState) {
	clearPromised(cs, sim.first, sim.last, sim.id)
	if cs.draining || !v.uncovered(cs, sim.first, sim.last) {
		return
	}
	v.sched.Enqueue(sched.Request{
		Ctx: cs.ctx.Name, First: sim.first, Last: sim.last,
		Parallelism: sim.parallelism, Class: sim.class, Client: sim.client,
	})
	v.markPromised(cs, sim.first, sim.last, pendingSimID)
}
