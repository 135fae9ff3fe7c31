package core

import (
	"fmt"
	"time"

	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/prefetch"
	"simfs/internal/sched"
)

// Open handles a client's open of an output step file (paper Sec. III-A):
// non-blocking, it reports whether the file is on disk; if not, it starts
// (or joins) a re-simulation and returns an estimated wait. It also feeds
// the client's prefetch agent.
func (v *Virtualizer) Open(client, ctxName, filename string) (OpenResult, error) {
	return v.OpenAwait(client, ctxName, filename, nil, 0)
}

// OpenAwait is Open for a caller that waits when the file is missing
// (the paper's "notify the client when the file is produced"): a miss
// registers client's waiter for the step with o, under tag, in the same
// hold of the shard lock that decided the miss, so nothing resolves the
// step unseen in between. o's callback then runs once, in the goroutine
// that delivers the step's fate — FileReady, or FileFailed when the
// re-simulation dies or the context goes away. A hit, a refused open, or
// a miss nothing promises (Awaited false) registers nothing. A nil o is
// Open. A caller already holding filename's step passes it as step (see
// shard.resolved).
func (v *Virtualizer) OpenAwait(client, ctxName, filename string, o *notify.Owner, tag uint64, step ...int) (OpenResult, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return OpenResult{}, err
	}
	res, after, err := v.openLocked(cs, client, filename, step, o, tag)
	cs.mu.Unlock()
	// Lock-free: an agent reset's orphans fail, its freed capacity drains,
	// and an open that queued demand work probes for preemption.
	v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "re-simulation killed"}, after.orphaned)
	if after.freedCapacity {
		v.drainScheduler()
	}
	if after.queuedDemand {
		v.maybePreempt()
	}
	return res, err
}

// afterOpen is what an open leaves for after the shard lock.
type afterOpen struct {
	orphaned                    []notify.Waiter
	freedCapacity, queuedDemand bool
}

// openLocked is OpenAwait's body, under the shard lock.
func (v *Virtualizer) openLocked(cs *shard, client, filename string, resolved []int, o *notify.Owner, tag uint64) (OpenResult, afterOpen, error) {
	var after afterOpen
	if cs.draining {
		return OpenResult{}, after, fmt.Errorf("core: %w: %q refuses new opens", ErrDraining, cs.ctx.Name)
	}
	step, ok := cs.resolved(filename, resolved)
	if !ok {
		var err error
		if step, err = cs.outputStep(filename); err != nil {
			return OpenResult{}, after, err
		}
	}
	now := v.clock.Now()
	cs.stats.Opens++

	hit := cs.cache.Touch(step)
	if hit {
		cs.stats.Hits++
		delete(cs.prefetched, step) // accessed in time: not pollution
	} else {
		cs.stats.Misses++
		// Cache-pollution signal (Sec. IV-C): the client misses on a step
		// its own agent prefetched and that had been produced — it was
		// evicted before being accessed. Reset all active agents.
		if by, ok := cs.prefetched[step]; ok && by == client {
			cs.stats.PollutionResets++
			for _, ag := range cs.agents { //simfs:allow maporder each agent resets independently; order is invisible
				ag.Reset()
			}
			delete(cs.prefetched, step)
		}
	}

	// Feed the prefetch agent and apply its decision. The processing-time
	// sample excludes time blocked on missing files: it is measured from
	// the instant the client's previous file became available.
	procTime := time.Duration(0)
	if lr, ok := cs.lastReady[client]; ok && now > lr {
		procTime = now - lr
	}
	after.orphaned, after.freedCapacity, after.queuedDemand = v.runAgent(cs, client, step, now, procTime)
	// The reference is counted where the open succeeds — a refused open
	// has nothing to roll back. Once counted the step cannot be evicted.
	if hit {
		cs.lastReady[client] = now
		cs.steps.At(step).pin()
		return OpenResult{Available: true}, after, nil
	}

	// Miss: join the producing simulation or start a demand one.
	if st := cs.step(step); st.promised && st.owner == pendingSimID {
		// The step is promised by a *queued* job — nothing to submit, so
		// without this the demand interest would never reach the
		// scheduler (not even Coalesce sees it). Under Priorities the
		// queued job is lifted to demand class so it drains ahead of
		// speculative work; the promotion counts as queued demand for the
		// preemption probe like any demand enqueue.
		if v.sched.PromoteDemand(cs.ctx.Name, step, client) {
			after.queuedDemand = true
		}
	} else if !st.promised {
		// Circuit breaker: an interval that exhausted its retry budget
		// fails fast with the structured quarantine error instead of
		// launching a simulation that will not produce.
		if qf, ql, okq := alignLaunchRange(cs, step, step); okq {
			if qerr := v.quarantineErr(cs, qf, ql); qerr != nil {
				return OpenResult{}, after, qerr
			}
		}
		// The client rides along for the scheduler's per-client quota
		// accounting; demand simulations themselves stay client-less
		// (prefetchFor derives from the class, not the field).
		if queued, _ := v.launch(cs, step, step, cs.ctx.DefaultParallelism, sched.Demand, client); queued {
			after.queuedDemand = true
		}
	}
	// A waiter must never sit on a step nothing will resolve.
	awaited := o != nil && cs.step(step).promised
	if awaited {
		v.hub.AwaitFor(notify.Topic{Context: cs.ctx.Name, Step: step}, client, o, tag)
	}
	cs.steps.At(step).pin()
	return OpenResult{Available: false, EstWait: v.estWaitLocked(cs, step, now), Awaited: awaited}, after, nil
}

// Release drops a client's reference to a file (close in transparent
// mode, SIMFS_Release in API mode). step is as for OpenAwait.
func (v *Virtualizer) Release(client, ctxName, filename string, step ...int) error {
	return v.release(ctxName, filename, step, true)
}

// Referenced answers what Release would, dropping nothing: core counts a
// step's references, not whose, so a front end that knows whose asks it.
func (v *Virtualizer) Referenced(ctxName, filename string) error {
	return v.release(ctxName, filename, nil, false)
}

// release is Release, which drops the reference only when drop is set.
func (v *Virtualizer) release(ctxName, filename string, resolved []int, drop bool) error {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	step, ok := cs.resolved(filename, resolved)
	if !ok {
		if step, err = cs.keyOf(filename); err != nil {
			return err
		}
	}
	st := cs.steps.Get(step)
	if st == nil || st.refs <= 0 {
		return fmt.Errorf("core: %w: release of unreferenced file %q", ErrInvalid, filename)
	}
	if drop {
		st.unpin()
	}
	return nil
}

// GuidedPrefetch implements the guided-prefetching interface (paper
// Sec. I: the APIs "can be used in addition to the fully transparent
// virtualization to optimize client applications as, e.g., guided
// prefetching"). The client hints that it will access the given files
// soon; SimFS starts re-simulations for the missing ones without taking
// references and without blocking. Hints beyond smax are dropped, like
// agent prefetches. It returns the number of re-simulations launched.
func (v *Virtualizer) GuidedPrefetch(client, ctxName string, filenames []string) (int, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return 0, err
	}
	// A guided hint on a pipeline context can queue node-blocked demand
	// work for its upstream inputs; probe for preemption after the
	// unlock when that happened.
	queuedDemand := false
	defer func() {
		if queuedDemand {
			v.maybePreempt()
		}
	}()
	defer cs.mu.Unlock()
	if cs.draining {
		return 0, fmt.Errorf("core: %w: %q refuses new prefetches", ErrDraining, ctxName)
	}
	launched := 0
	for _, f := range filenames {
		step, err := cs.outputStep(f)
		if err != nil {
			return launched, err
		}
		if cs.covered(step) {
			continue
		}
		before := cs.stats.Restarts
		if queued, _ := v.launch(cs, step, step, cs.ctx.DefaultParallelism, sched.Guided, client); queued {
			queuedDemand = true
		}
		if cs.stats.Restarts > before {
			launched++
		}
	}
	return launched, nil
}

// EstWait returns the estimated wait for a file (exposed via
// SIMFS_Status).
func (v *Virtualizer) EstWait(ctxName, filename string) (time.Duration, error) {
	cs, step, err := v.lockedStep(ctxName, filename)
	if err != nil {
		return 0, err
	}
	defer cs.mu.Unlock()
	if cs.resident(step) {
		return 0, nil
	}
	return v.estWaitLocked(cs, step, v.clock.Now()), nil
}

// estWaitLocked estimates availability time of a step from its producing
// simulation's progress. Caller holds the shard lock.
func (v *Virtualizer) estWaitLocked(cs *shard, step int, now time.Duration) time.Duration {
	st := cs.step(step)
	if !st.promised {
		return 0
	}
	sim, ok := cs.sims[st.owner]
	if !ok {
		// Pending (smax or pipeline): assume a full restart plus the
		// production run from its restart step.
		alpha := time.Duration(cs.alphaEMA.Value(float64(cs.ctx.Alpha)))
		return alpha + time.Duration(cs.ctx.Grid.MissCost(step))*cs.ctx.Tau
	}
	tau := cs.ctx.TauAt(sim.parallelism)
	if sim.started {
		eta := sim.startedAt + time.Duration(step-sim.first+1)*tau
		if eta > now {
			return eta - now
		}
		return 0
	}
	alpha := time.Duration(cs.alphaEMA.Value(float64(cs.ctx.Alpha)))
	eta := sim.launchedAt + alpha + time.Duration(step-sim.first+1)*tau
	if eta > now {
		return eta - now
	}
	return 0
}

// runAgent feeds one access into the client's prefetch agent and applies
// its decision. It returns the waiters of steps orphaned by a prefetch
// reset, for the caller to fail after unlocking, whether the reset freed
// scheduler capacity (the caller must then drain, also after unlocking),
// and whether a launch queued node-blocked demand work (a pipeline
// context's upstream inputs — the caller's preemption-probe cue). Caller
// holds the shard lock.
func (v *Virtualizer) runAgent(cs *shard, client string, step int, now, procTime time.Duration) ([]notify.Waiter, bool, bool) {
	if cs.ctx.NoPrefetch {
		return nil, false, false
	}
	ag, ok := cs.agents[client]
	if !ok {
		ag = prefetch.NewAgent(cs.ctx.Grid, &estimator{cs: cs}, cs.ctx.SMax, cs.ctx.RampUp, cs.ctx.AlphaSmoothing)
		cs.agents[client] = ag
	}
	cover := func(dir, k int) int { return v.coveredUntil(cs, step, dir, k) }
	d := ag.OnAccess(step, now, procTime, cover)
	var orphaned []int
	freed := false
	queuedDemand, dropped := false, false
	if d.Reset {
		orphaned, freed = v.killPrefetchedFor(cs, client)
	}
	// The first refusal settles the rest of the decision: a refusal
	// changes no admission state, so the later ranges that would reach
	// the scheduler are refused too (capacity freed meanwhile by another
	// context counts as freed after the decision) and booked in one call.
	refused, refusedSteps := 0, 0
	for _, r := range d.Launches {
		if !dropped {
			var queued bool
			queued, dropped = v.launch(cs, r.First, r.Last, d.Parallelism, sched.Agent, client)
			queuedDemand = queuedDemand || queued
		} else if first, last, ok := v.launchable(cs, r.First, r.Last, sched.Agent); ok {
			cs.stats.DroppedPrefetch++
			refused, refusedSteps = refused+1, refusedSteps+last-first+1
		}
	}
	if refused > 0 {
		v.sched.Dropped(client, refusedSteps, refused)
	}
	// The agent's follow-up launches may have re-promised some orphaned
	// steps; those are in flight again, not failed.
	return v.take(cs, v.trulyOrphaned(cs, orphaned)), freed, queuedDemand
}

// coveredUntil walks the trajectory from `from` along dir with stride k
// and returns the furthest step that is resident or promised contiguously.
// Caller holds the shard lock.
func (v *Virtualizer) coveredUntil(cs *shard, from, dir, k int) int {
	if k < 1 {
		k = 1
	}
	j := from
	for {
		next := j + dir*k
		if !cs.ctx.Grid.ValidOutput(next) {
			return j
		}
		if !cs.covered(next) {
			return j
		}
		j = next
	}
}

// launch builds a launch request covering output steps [first, last],
// realigned to restart-step boundaries, and hands it to the scheduler;
// when the scheduler admits it the simulation starts immediately, when it
// queues it the steps are marked pending. client names the requesting
// client for prefetch classes, "" for demand misses. It reports whether
// demand work was queued (the caller's cue to probe for preemption once
// the shard lock is released) and whether the scheduler dropped the
// request. Caller holds the shard lock.
func (v *Virtualizer) launch(cs *shard, first, last, parallelism int, class sched.Class, client string) (queuedDemand, dropped bool) {
	first, last, ok := v.launchable(cs, first, last, class)
	if !ok {
		return false, false
	}
	if parallelism <= 0 {
		parallelism = cs.ctx.DefaultParallelism
	}
	if max := v.sched.MaxJobNodes(); max > 0 && parallelism > max {
		parallelism = max
	}

	req := sched.Request{
		Ctx: cs.ctx.Name, First: first, Last: last,
		Parallelism: parallelism, Class: class, Client: client,
	}
	switch v.sched.Submit(req) {
	case sched.Admitted:
		// An admitted pipeline job may still queue a node-blocked demand
		// launch for its upstream inputs: that cue bubbles up.
		return v.startSim(cs, first, last, parallelism, class, client), false
	case sched.Queued:
		v.markPromised(cs, first, last, pendingSimID)
		return class == sched.Demand, false
	}
	cs.stats.DroppedPrefetch++
	return false, true
}

// launchable realigns [first, last] (alignLaunchRange) and reports
// whether a launch of it would reach the scheduler; a quarantined
// prefetch counts as dropped. Caller holds the shard lock.
func (v *Virtualizer) launchable(cs *shard, first, last int, class sched.Class) (int, int, bool) {
	first, last, ok := alignLaunchRange(cs, first, last)
	if !ok {
		return 0, 0, false
	}
	if class != sched.Demand && v.quarantineErr(cs, first, last) != nil {
		// A prefetch of a quarantined interval would only feed the
		// breaker; demand work is gated at Open with a structured error.
		cs.stats.DroppedPrefetch++
		return 0, 0, false
	}
	// Skip the launch when every step in the range is already resident or
	// promised. Partially covered ranges still launch in full: the
	// re-simulation must boot from the restart step and recompute the
	// covered steps anyway, so trimming would only distort the timing.
	return first, last, v.uncovered(cs, first, last)
}

// alignLaunchRange clamps a requested output range to the timeline and
// realigns it to restart boundaries: simulations boot from a restart
// step and run to at least the next one. The result is the interval a
// launch actually covers — and the failure ledger's key. Caller holds
// the shard lock.
func alignLaunchRange(cs *shard, first, last int) (int, int, bool) {
	g := cs.ctx.Grid
	if first < 1 {
		first = 1
	}
	if last > g.NumOutputSteps() {
		last = g.NumOutputSteps()
	}
	if first > last {
		return 0, 0, false
	}
	iv := model.Interval{Start: g.RestartBefore(first), End: g.RestartAfter(last)}
	if iv.End > g.Timesteps {
		iv.End = g.Timesteps
	}
	return g.OutputsIn(iv)
}

// uncovered reports whether any step in [first, last] is neither resident
// nor promised. Caller holds the shard lock.
func (v *Virtualizer) uncovered(cs *shard, first, last int) bool {
	for s := first; s <= last; s++ {
		if !cs.covered(s) {
			return true
		}
	}
	return false
}

// prefetchForOf derives the simState.prefetchFor tag from a request's
// class: demand work carries no client, prefetch work the requester.
func prefetchForOf(class sched.Class, client string) string {
	if class == sched.Demand {
		return ""
	}
	return client
}

// pendingSimID marks steps promised by a not-yet-launched simulation.
const pendingSimID = int64(-1)
