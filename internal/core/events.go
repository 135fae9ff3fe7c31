package core

import (
	"maps"
	"slices"
	"time"

	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// estimator adapts a context's observed state to the prefetch.Estimator
// interface. It is only used under the shard's lock.
type estimator struct{ cs *shard }

func (e *estimator) AlphaEstimate() time.Duration {
	return time.Duration(e.cs.alphaEMA.Value(float64(e.cs.ctx.Alpha)))
}
func (e *estimator) TauEstimate(p int) time.Duration { return e.cs.ctx.TauAt(p) }
func (e *estimator) DefaultParallelism() int         { return e.cs.ctx.DefaultParallelism }
func (e *estimator) MaxParallelism() int             { return e.cs.ctx.MaxParallelism }

// startSim creates the simulation record and, if its upstream inputs are
// available (pipeline virtualization, Sec. III-E), hands it to the
// Launcher; otherwise it acquires the upstream files first and launches
// when they are all on disk. It reports whether an upstream demand
// launch was queued (node-blocked) so the probe cue reaches the caller.
// Caller holds cs's lock; the upstream shard is locked inside
// (downstream→upstream order).
func (v *Virtualizer) startSim(cs *shard, first, last, parallelism int, class sched.Class, client string) (queuedDemand bool) {
	now := v.clock.Now()
	sim := &simState{
		first:       first,
		last:        last,
		parallelism: parallelism,
		prefetchFor: prefetchForOf(class, client),
		class:       class,
		client:      client,
		launchedAt:  now,
	}

	if cs.ctx.Upstream != "" {
		ucs, _ := v.shardOf(cs.ctx.Upstream)
		ucs.mu.Lock()
		usteps := neededUpstreamSteps(cs.ctx.Grid, ucs.ctx.Grid, first, last)
		var missing []int
		sim.upstreamSteps = usteps
		for _, us := range usteps {
			ucs.steps.At(us).pin()
			if !ucs.resident(us) {
				missing = append(missing, us)
			}
		}
		if len(missing) > 0 {
			sim.pendingUpstream = len(missing)
			sim.id = v.placeholderSeq.Add(-1)
			cs.sims[sim.id] = sim
			// A parked simulation keeps its context slot but returns its
			// nodes: the upstream work it waits for needs the budget.
			v.sched.ParkNodes(sim.parallelism)
			v.markPromised(cs, sim.first, sim.last, sim.id)
			for _, us := range missing {
				if !ucs.step(us).promised {
					// The upstream demand bills the client whose
					// downstream sim induced it (DRR accounting); the
					// launched sim itself stays client-less.
					if queued, _ := v.launch(ucs, us, us, ucs.ctx.DefaultParallelism, sched.Demand, client); queued {
						queuedDemand = true
					}
				}
				v.hub.AwaitFor(notify.Topic{Context: ucs.ctx.Name, Step: us}, cs.pipelineClient, cs.upstream, uint64(sim.id))
			}
			ucs.mu.Unlock()
			return queuedDemand
		}
		ucs.mu.Unlock()
	}
	v.doLaunch(cs, sim)
	return false
}

// upstreamReady is the shard's upstream owner's callback (invoked without
// any shard lock), fired for each upstream file a pipeline-pending
// simulation needed; the tag is the simulation's placeholder id.
func (v *Virtualizer) upstreamReady(cs *shard, placeholderID int64, ev notify.Event) {
	cs.mu.Lock()
	sim, ok := cs.sims[placeholderID]
	if !ok {
		cs.mu.Unlock()
		return
	}
	if ev.Kind == notify.FileFailed {
		// Upstream production failed: fail this simulation. Its nodes
		// are parked, so only the context slot returns.
		delete(cs.sims, placeholderID)
		v.releaseUpstream(cs, sim)
		ws := v.failPromised(cs, sim)
		cs.mu.Unlock()
		v.sched.ReleaseSlot(cs.ctx.Name)
		v.drainScheduler()
		v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "upstream re-simulation failed: " + ev.Err}, ws)
		return
	}
	sim.pendingUpstream--
	if sim.pendingUpstream > 0 {
		cs.mu.Unlock()
		return
	}
	// All inputs on disk: re-claim the parked nodes and hand to the
	// Launcher under the real ID.
	delete(cs.sims, placeholderID)
	// Clear placeholder promises; doLaunch (or the requeued launch)
	// re-marks them.
	clearPromised(cs, sim.first, sim.last, placeholderID)
	if !v.sched.ClaimNodes(sim.parallelism) {
		// The node budget filled up while the inputs were produced: give
		// the slot back and requeue; the job launches through the normal
		// drain once nodes free, re-walking its upstream inputs then
		// (they are resident now; if evicted meanwhile the walk simply
		// re-acquires them).
		v.releaseUpstream(cs, sim)
		v.sched.ReleaseSlot(cs.ctx.Name)
		v.sched.Enqueue(sched.Request{
			Ctx: cs.ctx.Name, First: sim.first, Last: sim.last,
			Parallelism: sim.parallelism, Class: sim.class, Client: sim.client,
		})
		v.markPromised(cs, sim.first, sim.last, pendingSimID)
		cs.mu.Unlock()
		v.drainScheduler()
		return
	}
	v.doLaunch(cs, sim)
	cs.mu.Unlock()
}

// doLaunch hands the simulation to the Launcher. Caller holds cs's lock.
// simMu is held across Launch so a concurrent event callback for the new
// id finds its route before the id is even returned to us.
func (v *Virtualizer) doLaunch(cs *shard, sim *simState) {
	sim.launched = true
	v.simMu.Lock()
	id := v.launcher.Launch(cs.ctx, sim.first, sim.last, sim.parallelism)
	sim.id = id
	v.simDir[id] = cs
	v.simMu.Unlock()
	cs.sims[id] = sim
	cs.stats.Restarts++
	if sim.prefetchFor == "" {
		cs.stats.DemandRestarts++
	} else {
		cs.stats.PrefetchLaunches++
	}
	v.markPromised(cs, sim.first, sim.last, id)
}

// markPromised registers promised markers for uncovered steps in the
// range. It and clearPromised are the only writers of the promises over a
// range; stepArrived writes them one step at a time. Caller holds the
// shard lock.
func (v *Virtualizer) markPromised(cs *shard, first, last int, simID int64) {
	for s := first; s <= last; s++ {
		if !cs.covered(s) {
			st := cs.steps.At(s)
			st.owner, st.promised = simID, true
		}
	}
}

// clearPromised deletes the markers simID (a simulation, a placeholder or
// pendingSimID) holds in the range and returns the steps cleared, for the
// caller to settle before it unlocks: re-marked by a launch or
// remarkQueued, or failed (trulyOrphaned). Caller holds the shard lock.
func clearPromised(cs *shard, first, last int, simID int64) []int {
	var cleared []int
	for s := first; s <= last; s++ {
		if st := cs.steps.Get(s); st != nil && st.promised && st.owner == simID {
			st.promised = false
			cleared = append(cleared, s)
		}
	}
	return cleared
}

// neededUpstreamSteps returns the upstream output steps whose data covers
// the downstream re-simulation producing outputs [first, last]: the
// interval from the restart boot to the last simulated timestep. Upstream
// output step i covers timesteps ((i-1)·Δd_up, i·Δd_up].
func neededUpstreamSteps(down, up model.Grid, first, last int) []int {
	start := down.RestartBefore(first)
	end := down.OutputTimestep(last)
	firstUp := start/up.DeltaD + 1
	lastUp := (end + up.DeltaD - 1) / up.DeltaD
	if max := up.NumOutputSteps(); lastUp > max {
		lastUp = max
	}
	var steps []int
	for i := firstUp; i <= lastUp; i++ {
		steps = append(steps, i)
	}
	return steps
}

// releaseUpstream drops the upstream references a pipeline simulation
// held. Caller holds cs's lock; the upstream shard is locked inside
// (downstream→upstream order).
func (v *Virtualizer) releaseUpstream(cs *shard, sim *simState) {
	if cs.ctx.Upstream == "" || len(sim.upstreamSteps) == 0 {
		return
	}
	ucs, ok := v.shardOf(cs.ctx.Upstream)
	if !ok {
		return
	}
	ucs.mu.Lock()
	defer ucs.mu.Unlock()
	for _, step := range sim.upstreamSteps {
		if st := ucs.steps.At(step); st.refs > 0 {
			st.unpin()
		}
	}
	sim.upstreamSteps = nil
}

// SimStarted implements the launcher Events contract: production begins
// (restart latency elapsed). The observed latency feeds the EMA the
// prefetch agents use (Sec. IV-C1c).
func (v *Virtualizer) SimStarted(simID int64) {
	cs := v.simShard(simID)
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sim, ok := cs.sims[simID]
	if !ok {
		return
	}
	now := v.clock.Now()
	sim.started = true
	sim.startedAt = now
	cs.alphaEMA.Observe(float64(now - sim.launchedAt))
}

// StepProduced implements the launcher Events contract: one output step
// was written and closed. The step enters the cache (evicting as needed),
// prefetch bookkeeping is updated, and the step's waiters are taken and
// woken with file-ready after the shard lock is released.
func (v *Virtualizer) StepProduced(simID int64, step int) {
	cs := v.simShard(simID)
	if cs == nil {
		return
	}
	cs.mu.Lock()
	sim, ok := cs.sims[simID]
	if !ok {
		cs.mu.Unlock()
		return
	}
	sim.produced++
	cs.stats.StepsProduced++
	if sim.prefetchFor != "" {
		if _, tracked := cs.prefetched[step]; !tracked {
			cs.prefetched[step] = sim.prefetchFor
		}
	}
	ws := v.stepArrived(cs, step, nil)
	cs.mu.Unlock()
	v.hub.Deliver(notify.Event{Kind: notify.FileReady}, ws)
}

// SimEnded implements the launcher Events contract.
func (v *Virtualizer) SimEnded(simID int64, outcome simulator.Outcome) {
	cs := v.simShard(simID)
	if cs == nil {
		return
	}
	cs.mu.Lock()
	sim, ok := cs.sims[simID]
	if !ok {
		cs.mu.Unlock()
		v.dropSimRoute(simID)
		return
	}
	delete(cs.sims, simID)
	v.releaseUpstream(cs, sim)
	// The slot and nodes return before the outcome is settled, so a retry
	// below is admitted against them like any new submission (the
	// scheduler mutex is innermost: legal under the shard lock).
	if sim.preempted {
		// One critical section returns the victim's nodes and settles
		// the reclaim ledger: no observer sees them double-counted.
		v.sched.SimDonePreempted(cs.ctx.Name, sim.parallelism)
	} else {
		v.sched.SimDone(cs.ctx.Name, sim.parallelism)
	}

	var ws []notify.Waiter
	ev := notify.Event{Kind: notify.FileFailed}
	switch outcome {
	case simulator.Completed:
		// Normal completion: the interval's failure-ledger slate wipes.
		v.clearFailure(cs, sim.first, sim.last)
	case simulator.Killed:
		// A kill core issued settled the promises in its own hold; what
		// is left is a kill from outside core.
		cs.stats.Kills++
		ev.Err = "re-simulation killed"
		ws = v.failPromised(cs, sim)
	default:
		cs.stats.Failures++
		qerr, retry := v.noteFailure(cs, sim)
		switch {
		case retry:
			// The ledger grants another attempt: relaunch the interval
			// now, in this hold — αsim and the queue delay space the
			// attempts. While draining, only demand work someone needs
			// starts. Steps the relaunch leaves unpromised (the drain, or
			// a prefetch dropped at smax or by the quarantine) fail their
			// waiters, so nobody who joined the promise waits on a
			// simulation that will never run.
			cleared := clearPromised(cs, sim.first, sim.last, sim.id)
			if !cs.draining || sim.class == sched.Demand && v.anyoneNeeds(cs, sim.first, sim.last) {
				v.launch(cs, sim.first, sim.last, sim.parallelism, sim.class, sim.client)
			}
			ev.Err = "re-simulation canceled"
			ws = v.take(cs, v.trulyOrphaned(cs, cleared))
		case qerr != nil:
			// Budget exhausted: the breaker opened. Fail the waiters with
			// the structured error so clients see attempts + retry-after.
			ev.Err = qerr.Error()
			ev.Attempts, ev.RetryAfter = qerr.Attempts, int64(qerr.RetryAfter)
			ws = v.failPromised(cs, sim)
		default:
			ev.Err = "re-simulation failed"
			ws = v.failPromised(cs, sim)
		}
	}
	cs.mu.Unlock()
	v.drainScheduler()
	v.dropSimRoute(simID)
	v.hub.Deliver(ev, ws)
}

// failPromised clears the promises of a dead simulation and takes the
// waiters of the orphaned steps, for the caller to fail after unlocking.
// Caller holds the shard lock.
func (v *Virtualizer) failPromised(cs *shard, sim *simState) []notify.Waiter {
	return v.take(cs, clearPromised(cs, sim.first, sim.last, sim.id))
}

// drainScheduler starts queued launches while the scheduler admits them.
// It must be called WITHOUT any shard lock held: each admitted job locks
// its own shard (jobs of any context may become admissible when capacity
// frees up). Jobs are revalidated at admission — prefetch work that was
// produced in the meantime is dropped, and a draining (or concurrently
// deregistered — the flag outlives removal) context launches nothing new
// unless the job is demand work someone still waits on.
func (v *Virtualizer) drainScheduler() {
	// Whatever stopped the drain, a demand job still blocked on the node
	// budget may be allowed to make room for itself by killing a running
	// agent prefetch (no-op unless Config.Preempt is set).
	defer v.maybePreempt()
	for {
		job, cs, cleared, ok := v.popJob()
		if !ok {
			return
		}
		if cs.draining && !(job.Class == sched.Demand && v.anyoneNeeds(cs, job.First, job.Last)) {
			// The context is draining (or was removed while this job sat
			// queued): nothing new starts. Demand work with live waiters
			// or references is the exception — pre-drain work completes.
			// A prefetch-class job may still have waiters who joined its
			// promise: they are failed with it.
			ws := v.take(cs, v.trulyOrphaned(cs, cleared))
			v.sched.Release(job)
			cs.mu.Unlock()
			v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "re-simulation canceled"}, ws)
			continue
		}
		if job.Class != sched.Demand && !v.uncovered(cs, job.First, job.Last) {
			// Stale prefetch: everything it would produce is already on
			// disk or promised by a live simulation.
			v.remarkQueued(cs)
			v.sched.Release(job)
			cs.mu.Unlock()
			continue
		}
		v.startSim(cs, job.First, job.Last, job.Parallelism, job.Class, job.Client)
		cs.mu.Unlock()
	}
}

// popJob takes the next job the scheduler admits and returns it with its
// shard locked and its pending markers cleared (startSim re-marks what it
// launches). Jobs of a context deregistered meanwhile are released.
func (v *Virtualizer) popJob() (job sched.Job, cs *shard, cleared []int, ok bool) {
	v.admitting.Add(1)
	defer v.admitting.Add(-1)
	for {
		if job, ok = v.sched.Next(); !ok {
			return job, nil, nil, false
		}
		if cs, ok = v.shardOf(job.Ctx); ok {
			cs.mu.Lock()
			return job, cs, clearPromised(cs, job.First, job.Last, pendingSimID), true
		}
		v.sched.Release(job)
	}
}

// anyoneNeeds reports whether any step in the range has references or
// waiters, streams included. Caller holds the shard lock.
func (v *Virtualizer) anyoneNeeds(cs *shard, first, last int) bool {
	for s := first; s <= last; s++ {
		if cs.step(s).refs > 0 || v.hub.Waiting(notify.Topic{Context: cs.ctx.Name, Step: s}) {
			return true
		}
	}
	return false
}

// trulyOrphaned filters cleared step markers down to those not covered
// by residency, a live promise or a surviving queued job — whose markers,
// if a range clear overlapped them, it restores first. Caller holds the
// shard lock.
func (v *Virtualizer) trulyOrphaned(cs *shard, cleared []int) []int {
	if len(cleared) == 0 {
		return nil
	}
	v.remarkQueued(cs)
	var orphaned []int
	for _, s := range cleared {
		if !cs.covered(s) {
			orphaned = append(orphaned, s)
		}
	}
	return orphaned
}

// remarkQueued restores the pending markers of the shard's still-queued
// jobs (after a job's markers were cleared for a launch or cancellation
// that overlapped them). Caller holds the shard lock.
func (v *Virtualizer) remarkQueued(cs *shard) {
	for _, r := range v.sched.QueuedRanges(cs.ctx.Name) {
		v.markPromised(cs, r[0], r[1], pendingSimID)
	}
}

// killPrefetchedFor kills running prefetch simulations of the given client
// whose remaining output nobody waits for (Sec. IV-C: "A simulation can be
// killed only if there are no other analyses waiting for the files that
// are going to be produced by it"), and de-queues the client's queued
// prefetch jobs under the same no-waiters rule. Every kill settles its
// promises here, so an open after it misses and launches its own run.
// It returns the steps whose promises were dismantled — the caller takes
// their waiters before unlocking and fails them after — and whether
// scheduler capacity was freed synchronously (de-queued jobs or
// dismantled placeholders), in which case the caller must drain the
// scheduler after unlocking. Caller holds the shard lock.
func (v *Virtualizer) killPrefetchedFor(cs *shard, client string) ([]int, bool) {
	// The no-waiters rule, shared by queued jobs and running sims: a
	// range someone waits for (or references) survives.
	keep := func(first, last int) bool { return v.anyoneNeeds(cs, first, last) }

	// cleared collects every promise marker dismantled below; it is
	// reconciled against surviving queued jobs once, at the end. freed
	// records synchronous capacity release (launched kills free theirs
	// asynchronously through SimEnded).
	var cleared []int
	freed := false

	// De-queue queued prefetch jobs first so the drains triggered by the
	// kills below cannot re-admit work the client no longer wants.
	for _, job := range v.sched.CancelClient(cs.ctx.Name, client, keep) {
		freed = true
		cleared = append(cleared, clearPromised(cs, job.First, job.Last, pendingSimID)...)
	}

	// Sorted iteration: the kill/dismantle order below is visible to the
	// DES (each Kill schedules an event), so it must not follow map order.
	for _, id := range slices.Sorted(maps.Keys(cs.sims)) {
		sim := cs.sims[id]
		if sim.prefetchFor != client || sim.killing {
			continue
		}
		if keep(sim.first, sim.last) {
			continue
		}
		if sim.launched {
			sim.killing = true
			v.launcher.Kill(id)
		} else {
			// Pipeline-pending: dismantle locally. The placeholder's
			// nodes are parked, so only the context slot returns.
			delete(cs.sims, id)
			v.releaseUpstream(cs, sim)
			v.sched.ReleaseSlot(cs.ctx.Name)
			freed = true
			cs.stats.Kills++
		}
		cleared = append(cleared, clearPromised(cs, sim.first, sim.last, id)...)
	}
	// Steps a surviving queued job still covers were only over-cleared.
	return v.trulyOrphaned(cs, cleared), freed
}
