// Preemption: when the scheduler's node budget is exhausted and a demand
// miss is queued behind it, the Virtualizer may kill a running agent
// prefetch and hand its nodes to the demand work (paper follow-up to
// Sec. IV-C: a demand miss outranks speculative work; with preemption it
// may also evict it). Victim eligibility follows the paper's no-waiters
// rule — a simulation whose output someone waits for or references is
// never killed — and the victim's interval is requeued, so the
// speculative work is deferred, not discarded. The victim order
// (youngest first) lives in internal/sched.
package core

import (
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// victimRef pins a preemption candidate to its shard across the
// lock-free gap between selection and kill.
type victimRef struct {
	cs  *shard
	vic sched.Victim
}

// maybePreempt kills running agent prefetches while a node-blocked
// demand job wants their nodes. At most one victim is killed per
// WantsPreemption pass: its nodes count as reclaimed-in-flight, so a
// single blocked demand job never cascades into killing several victims
// at once — the next pass only fires if the freed nodes are still not
// enough. A failed kill (the chosen victim finished, grew waiters, or
// was taken by a concurrent probe on the realtime server) loops back
// through WantsPreemption rather than falling through to the next
// candidate: the re-check sees any concurrent kill's reclaiming nodes
// before another sim dies, and the re-enumeration no longer lists the
// stale victim, so the retry makes progress. Must be called with no
// shard lock held; the fast path is two atomic loads when preemption is
// off or no demand work is queued.
func (v *Virtualizer) maybePreempt() {
	for v.sched.WantsPreemption() {
		refs := v.preemptCandidates()
		vics := make([]sched.Victim, len(refs))
		for i, r := range refs {
			vics[i] = r.vic
		}
		i := v.sched.Config().Preempt.Choose(vics)
		if i < 0 {
			return // nothing eligible: wait for natural completions
		}
		v.killVictim(refs[i].cs, refs[i].vic.SimID)
	}
}

// preemptCandidates lists the killable running prefetches across all
// shards: launched, no kill (preemption or cancellation) already in
// flight, class-eligible (sched.VictimEligible: speculative agent work
// only), and — the no-waiters rule — nobody waiting for or referencing
// their range. The candidate order is map-random;
// sched.PreemptPolicy.Choose is a total order (ties break on simulation
// id), so the selection is deterministic anyway.
func (v *Virtualizer) preemptCandidates() []victimRef {
	v.ctxMu.RLock()
	shards := make([]*shard, 0, len(v.contexts))
	for _, cs := range v.contexts { //simfs:allow maporder Choose is a total order over candidates, so collection order is washed out
		shards = append(shards, cs)
	}
	v.ctxMu.RUnlock()
	var refs []victimRef
	for _, cs := range shards {
		cs.mu.Lock()
		for id, sim := range cs.sims { //simfs:allow maporder Choose is a total order over candidates, so collection order is washed out
			if !sim.launched || sim.preempted || sim.killing || !sched.VictimEligible(sim.class) {
				continue
			}
			if v.anyoneNeeds(cs, sim.first, sim.last) {
				continue
			}
			refs = append(refs, victimRef{cs: cs, vic: sched.Victim{SimID: id, LaunchedAt: sim.launchedAt}})
		}
		cs.mu.Unlock()
	}
	return refs
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
