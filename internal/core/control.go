package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"simfs/internal/cache"
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// Sentinel errors of the DV control surface. Front-ends map them to
// structured wire error codes with errors.Is instead of matching text.
// The //simfs:errcode annotations register each sentinel with the
// errcode analyzer, which then requires every //simfs:errcode-table
// classifier (the server's codeOf) to handle it.
var (
	// ErrUnknownContext: the named simulation context is not registered.
	//
	//simfs:errcode no_such_context
	ErrUnknownContext = errors.New("unknown context")
	// ErrDraining: the context refuses new opens and prefetches while it
	// drains; running work completes and releases still land.
	//
	//simfs:errcode busy
	ErrDraining = errors.New("context draining")
	// ErrBusy: the operation needs a quiescent context but references or
	// simulations are still live.
	//
	//simfs:errcode busy
	ErrBusy = errors.New("context busy")
	// ErrNotProduced: the file is neither on disk nor promised by a
	// re-simulation.
	//
	//simfs:errcode not_produced
	ErrNotProduced = errors.New("file is not being produced")
	// ErrInvalid: the request itself is malformed — a filename outside
	// the simulated timeline, an unknown cache policy, a nil context
	// definition. Front-ends map it to a bad-request error code;
	// anything unclassified is treated as an internal daemon failure.
	//
	//simfs:errcode bad_request
	ErrInvalid = errors.New("invalid request")
)

// SchedConfig returns the re-simulation scheduler policy in effect.
func (v *Virtualizer) SchedConfig() sched.Config { return v.sched.Config() }

// UpdateSchedConfig reconfigures the scheduler on the live daemon: the
// patch is validated and applied atomically against the current config
// under the scheduler's mutex, so concurrent partial reconfigurations
// compose instead of overwriting each other. The scheduler applies it at
// the next admission boundary (queued jobs are re-ordered, in-flight
// simulations keep their reservations); a drain pass afterwards starts
// anything the new policy admits — e.g. a raised node budget frees queued
// jobs immediately. It returns the resulting config; a refused patch
// (ErrInvalid) changes nothing.
func (v *Virtualizer) UpdateSchedConfig(p sched.Patch) (sched.Config, error) {
	cfg, err := v.sched.Update(p)
	if err != nil {
		return cfg, fmt.Errorf("core: %w: %v", ErrInvalid, err)
	}
	v.drainScheduler()
	return cfg, nil
}

// SetCachePolicy swaps a context's replacement scheme live. The new
// policy is rebuilt from the resident set in ascending step order
// (deterministic: later steps rank as more recently used), so no file
// moves or is evicted by the swap itself; sizes and byte accounting
// carry over untouched.
func (v *Virtualizer) SetCachePolicy(ctxName, policyName string) error {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	capacity := cs.ctx.CacheCapacitySteps()
	if capacity == 0 {
		capacity = cs.ctx.Grid.NumOutputSteps()
	}
	pol, err := cache.NewPolicy(policyName, capacity)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	cs.cache.SetPolicy(pol, cs.cache.Keys(), cs.ctx.Grid.MissCost)
	return nil
}

// Drain stops admitting new opens and prefetches for a context. Running
// simulations complete, existing waiters are served, and releases still
// land, so a drained context empties out under its current workload.
func (v *Virtualizer) Drain(ctxName string) error {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	cs.draining = true
	return nil
}

// Resume lifts a drain.
func (v *Virtualizer) Resume(ctxName string) error {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	cs.draining = false
	return nil
}

// RemoveContext deregisters a drained context. It refuses (ErrBusy) while
// files are referenced, simulations run, or a downstream context names it
// as upstream — drain first and retry once the workload has emptied. Its
// queued jobs are de-queued and every waiter left on it is failed (an
// in-process waiter holds a reference; a stream need not). The context's
// storage area is left on disk.
func (v *Virtualizer) RemoveContext(name string) error {
	// Fast-fail on a downstream dependent before marking the context
	// draining; the check is re-verified under ctxMu at the final
	// deletion, where it is authoritative.
	if dep := v.downstreamOf(name); dep != "" {
		return fmt.Errorf("core: %w: %q is upstream of %q", ErrBusy, name, dep)
	}

	cs, err := v.lockedShard(name)
	if err != nil {
		return err
	}
	// No new work lands from here on, whether or not removal succeeds
	// below: a deregistration attempt implies the context is retiring.
	cs.draining = true
	if n := cs.referenced(); n > 0 {
		cs.mu.Unlock()
		return fmt.Errorf("core: %w: %d files of %q still referenced", ErrBusy, n, name)
	}
	if n := len(cs.sims); n > 0 {
		cs.mu.Unlock()
		return fmt.Errorf("core: %w: %d simulations of %q still live", ErrBusy, n, name)
	}
	// De-queue the context's scheduler jobs and dismantle their markers.
	var orphaned []int
	for _, job := range v.sched.DropContext(name) {
		orphaned = append(orphaned, clearPromised(cs, job.First, job.Last, pendingSimID)...)
	}
	ws := v.take(cs, orphaned)
	cs.mu.Unlock()

	// Deletion and the dependency re-check share one ctxMu critical
	// section: AddContext validates upstreams under the same lock, so a
	// concurrently registered downstream either sees this context (and
	// blocks the removal here) or fails its own upstream validation —
	// never a dangling upstream pointer.
	v.ctxMu.Lock()
	if other := v.downstreamOf(name); other != "" {
		v.ctxMu.Unlock()
		// The queued jobs are already dropped and their promises cleared —
		// consistent on its own (a later open simply relaunches); tell
		// their waiters the productions died.
		v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "re-simulation canceled"}, ws)
		return fmt.Errorf("core: %w: %q is upstream of %q", ErrBusy, name, other)
	}
	next := maps.Clone(v.contexts())
	delete(next, name)
	v.dir.Store(&next)
	// Nothing decides these steps' fate any more: fail whoever still waits.
	for _, w := range v.hub.Waiters(name) {
		ws = v.hub.Take(w.Topic, ws)
	}
	v.ctxMu.Unlock()
	v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "context deregistered"}, ws)
	return nil
}

// downstreamOf returns the name of a context that lists name as its
// upstream ("" if none). Sorted iteration: with several downstreams, the
// one named must not vary run to run.
func (v *Virtualizer) downstreamOf(name string) string {
	contexts := v.contexts()
	for _, other := range slices.Sorted(maps.Keys(contexts)) {
		if contexts[other].ctx.Upstream == name {
			return other
		}
	}
	return ""
}
