package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"simfs/internal/des"
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// RetryPolicy configures the failure ledger: how failed re-simulations
// are retried with exponential backoff, and when an interval is
// quarantined by the circuit breaker. The zero value disables the
// ledger entirely — failures fail immediately, exactly the pre-ledger
// behavior (and what the determinism goldens pin).
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive launch failures tolerated
	// per interval: failures 1..MaxAttempts are retried with backoff,
	// failure MaxAttempts+1 opens the quarantine. <= 0 disables retry.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads each delay by ±Jitter fraction (0..1), so the
	// retries of intervals failed by one outage don't thundering-herd.
	Jitter float64
	// Cooldown is how long a quarantined interval refuses demand opens
	// before the breaker half-opens and admits one probe launch.
	Cooldown time.Duration
	// Seed roots the jitter rng; chaos harnesses pin it for replay.
	Seed int64
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 0 }

// withDefaults fills the unset knobs of an enabled policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if !p.enabled() {
		return p
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 10 * time.Second
	}
	// Above 1 a jitter draw can go negative, sending the retry at the
	// 1 ms floor whatever BaseBackoff says.
	p.Jitter = min(max(p.Jitter, 0), 1)
	return p
}

// QuarantineError is the structured failure of an interval the circuit
// breaker holds open: demand opens fail fast with it instead of
// launching a simulation that will not produce, and released waiters
// carry its Attempts/RetryAfter so clients can back off intelligently.
//
//simfs:errcode failed
type QuarantineError struct {
	Ctx         string
	First, Last int
	Attempts    int
	RetryAfter  time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("core: interval [%d,%d] of %q quarantined after %d failed re-simulations (retry in %v)",
		e.First, e.Last, e.Ctx, e.Attempts, e.RetryAfter)
}

// failureRec is one interval's entry in the per-shard failure ledger.
type failureRec struct {
	attempts    int // consecutive failed launches
	quarantined bool
	until       time.Duration // clock time the quarantine half-opens
}

// SetRetryPolicy installs (or, with the zero value, removes) the
// failure-ledger policy. Safe to call on a live Virtualizer; it applies
// to the next failure.
func (v *Virtualizer) SetRetryPolicy(p RetryPolicy) {
	v.retryMu.Lock()
	defer v.retryMu.Unlock()
	v.retry = p.withDefaults()
	v.retryRng = rand.New(rand.NewSource(p.Seed))
}

// backoffDelay computes the jittered exponential delay before retry
// number `attempt` (1-based).
func (v *Virtualizer) backoffDelay(p RetryPolicy, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		v.retryMu.Lock()
		f := 1 + p.Jitter*(2*v.retryRng.Float64()-1)
		v.retryMu.Unlock()
		d = time.Duration(float64(d) * f)
		if d < time.Millisecond {
			d = time.Millisecond
		}
	}
	return d
}

// noteFailure records a failed launch of [sim.first, sim.last] in the
// shard's ledger and decides its fate: retry after a delay, or fail —
// with a QuarantineError when this failure opened (or re-opened) the
// quarantine, plain otherwise. Caller holds the shard lock.
func (v *Virtualizer) noteFailure(cs *shard, sim *simState) (delay time.Duration, qerr *QuarantineError, retry bool) {
	v.retryMu.Lock()
	p := v.retry
	v.retryMu.Unlock()
	if !p.enabled() {
		return 0, nil, false
	}
	key := [2]int{sim.first, sim.last}
	rec := cs.failures[key]
	if rec == nil {
		rec = &failureRec{}
		cs.failures[key] = rec
	}
	rec.attempts++
	if rec.attempts <= p.MaxAttempts && !rec.quarantined {
		cs.retries++
		return v.backoffDelay(p, rec.attempts), nil, true
	}
	// Budget exhausted (or a half-open probe failed): open the breaker.
	rec.quarantined = true
	rec.until = v.clock.Now() + p.Cooldown
	cs.quarantined++
	return 0, &QuarantineError{
		Ctx: cs.ctx.Name, First: sim.first, Last: sim.last,
		Attempts: rec.attempts, RetryAfter: p.Cooldown,
	}, false
}

// clearFailure forgets an interval's ledger entry after a successful
// completion. Caller holds the shard lock.
func (v *Virtualizer) clearFailure(cs *shard, first, last int) {
	if len(cs.failures) == 0 {
		return
	}
	delete(cs.failures, [2]int{first, last})
}

// quarantineErr reports whether the interval is currently held by the
// circuit breaker. An expired quarantine half-opens here: the flag is
// cleared (the attempt count stays at the threshold, so one more
// failure re-opens immediately) and the caller's launch proceeds as the
// probe. Caller holds the shard lock.
func (v *Virtualizer) quarantineErr(cs *shard, first, last int) *QuarantineError {
	rec := cs.failures[[2]int{first, last}]
	if rec == nil || !rec.quarantined {
		return nil
	}
	now := v.clock.Now()
	if now >= rec.until {
		rec.quarantined = false
		return nil
	}
	return &QuarantineError{
		Ctx: cs.ctx.Name, First: first, Last: last,
		Attempts: rec.attempts, RetryAfter: rec.until - now,
	}
}

// repromise re-marks the dead simulation's promised steps as pending
// markers, keeping their waiters attached through the backoff window
// (waiters only ever sit on promised steps) and keeping demand opens
// from storming fresh launches for an interval a retry already covers.
// The markers change owner in place — clearPromised + markPromised would
// also promise steps of the range this simulation never held. Caller
// holds the shard lock.
func (v *Virtualizer) repromise(cs *shard, sim *simState) {
	for s := sim.first; s <= sim.last; s++ {
		if st := cs.steps.Get(s); st != nil && st.promised && st.owner == sim.id {
			st.owner = pendingSimID
		}
	}
}

// after runs f once d has passed on the Virtualizer's clock: as an event
// of a DES engine, so a retry lands in virtual time on the engine's own
// goroutine, and on a wall-clock timer otherwise.
func (v *Virtualizer) after(d time.Duration, f func()) {
	if eng, ok := v.clock.(*des.Engine); ok {
		eng.Schedule(d, f)
		return
	}
	time.AfterFunc(d, f) //simfs:allow wallclock the retry timer of a Virtualizer that runs on the wall clock
}

// retryLaunch re-submits a failed interval once its backoff elapsed. It
// runs from the retry timer with no locks held, mirroring the admission
// block of drainScheduler: clear the interval's pending markers and hand
// the interval back to the scheduler — unless the context drained
// meanwhile. Either way the cleared steps may end up with no owner (the
// drain, or a prefetch-class launch dropped at smax or by the
// quarantine): their waiters are taken and failed, so nobody who joined
// the promise waits on a simulation that will never run.
func (v *Virtualizer) retryLaunch(ctxName string, first, last, parallelism int, class sched.Class, client string) {
	cs, ok := v.shardOf(ctxName)
	if !ok {
		return
	}
	cs.mu.Lock()
	if i := slices.Index(cs.retryArmed, [2]int{first, last}); i >= 0 {
		cs.retryArmed = slices.Delete(cs.retryArmed, i, i+1)
	}
	cleared := clearPromised(cs, first, last, pendingSimID)
	queued := false
	if !cs.draining || class == sched.Demand && v.anyoneNeeds(cs, first, last) {
		queued, _ = v.launch(cs, first, last, parallelism, class, client)
	}
	ws := v.take(cs, v.trulyOrphaned(cs, cleared))
	cs.mu.Unlock()
	v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "re-simulation canceled"}, ws)
	if queued {
		v.maybePreempt()
	}
}

// ResetQuarantine clears the failure ledger of a context ("" = every
// context), closing open circuit breakers so demand opens launch again.
// It returns how many quarantined intervals were released.
func (v *Virtualizer) ResetQuarantine(ctxName string) (int, error) {
	var shards []*shard
	if ctxName == "" {
		for _, cs := range v.contexts() { //simfs:allow maporder per-shard resets are independent and the released count is commutative
			shards = append(shards, cs)
		}
	} else {
		cs, ok := v.shardOf(ctxName)
		if !ok {
			return 0, fmt.Errorf("core: %w %q", ErrUnknownContext, ctxName)
		}
		shards = append(shards, cs)
	}
	released := 0
	for _, cs := range shards {
		cs.mu.Lock()
		for key, rec := range cs.failures {
			if rec.quarantined {
				released++
			}
			delete(cs.failures, key)
		}
		cs.mu.Unlock()
	}
	return released, nil
}
