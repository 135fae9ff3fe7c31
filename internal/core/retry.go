package core

import (
	"fmt"
	"time"
)

// RetryPolicy configures the failure ledger: how many times a failed
// re-simulation is relaunched, and when an interval is quarantined by
// the circuit breaker. A granted retry relaunches at once: the restart
// latency αsim and the batch queue delay already space the attempts.
// The zero value disables the ledger entirely — failures fail
// immediately, exactly the pre-ledger behavior (and what the
// determinism goldens pin).
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive launch failures tolerated
	// per interval: failures 1..MaxAttempts are relaunched, failure
	// MaxAttempts+1 opens the quarantine. <= 0 disables retry.
	MaxAttempts int
	// Cooldown is how long a quarantined interval refuses demand opens
	// before the breaker half-opens and admits one probe launch.
	Cooldown time.Duration
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 0 }

// withDefaults fills the unset cooldown of an enabled policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.enabled() && p.Cooldown <= 0 {
		p.Cooldown = 10 * time.Second
	}
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
}

// noteFailure records a failed launch of [sim.first, sim.last] in the
// shard's ledger and decides its fate: retry at once, or fail —
// with a QuarantineError when this failure opened (or re-opened) the
// quarantine, plain otherwise. Caller holds the shard lock.
func (v *Virtualizer) noteFailure(cs *shard, sim *simState) (qerr *QuarantineError, retry bool) {
	v.retryMu.Lock()
	p := v.retry
	v.retryMu.Unlock()
	if !p.enabled() {
		return nil, false
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
		return nil, true
	}
	// Budget exhausted (or a half-open probe failed): open the breaker.
	rec.quarantined = true
	rec.until = v.clock.Now() + p.Cooldown
	cs.quarantined++
	return &QuarantineError{
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
