package autoscale

import (
	"fmt"
	"time"

	"simfs/internal/sched"
)

// PreemptGovernor flips preemption on under sustained demand contention
// and off again after a calm streak. It only ever disarms what it
// armed: if the operator configured preemption themselves, the governor
// observes and stays out of the way.
type PreemptGovernor struct {
	// HighWait is the per-tick demand-wait growth that counts as
	// contention (default 500ms).
	HighWait time.Duration
	// CalmTicks is the calm streak before disarming (default 3).
	CalmTicks int
	// Cooldown is the minimum controller time between actuations.
	Cooldown time.Duration

	latch
}

func (p *PreemptGovernor) Name() string { return "preempt-governor" }

func (p *PreemptGovernor) Evaluate(t Tick) []Action {
	if t.First || p.cooling(t.Now, p.Cooldown) {
		return nil
	}
	highWait := orDefault(p.HighWait, 500*time.Millisecond)
	calmTicks := orDefault(p.CalmTicks, 3)
	switch delta := t.demandWaitDelta(); {
	case delta >= highWait:
		// Arm only when preemption is off; an operator-armed policy is
		// not ours to manage (and arming again would be a no-op anyway).
		if p.arm(t.Now, t.Cur.Cfg.Preempt != sched.PreemptOff) {
			return []Action{{
				Patch:  &sched.Patch{Preempt: ptr(sched.PreemptYoungest)},
				Reason: fmt.Sprintf("demand wait grew %v ≥ %v this tick", delta, highWait),
			}}
		}
	case p.disarm(t.Now, calmTicks):
		return []Action{{
			Patch:  &sched.Patch{Preempt: ptr(sched.PreemptOff)},
			Reason: fmt.Sprintf("demand wait calm for %d ticks", calmTicks),
		}}
	}
	return nil
}
