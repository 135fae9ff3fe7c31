// Package autoscale closes the control loop around a running Data
// Virtualizer: a Controller samples the daemon's own stats stream on a
// tick, hands consecutive samples to pluggable policies, and actuates
// their verdicts through the existing control plane (scheduler partial
// reconfiguration, cache-policy swap). The paper's evaluation picks the
// DV configuration per workload by hand; the controller makes that
// choice continuously, from the same signals the stats surface already
// exports, so a phase change in the workload re-tunes the daemon without
// an operator in the loop.
//
// Actuator safety rules, enforced structurally rather than per policy:
//
//   - Single-writer actuation: each tick merges every policy's scheduler
//     patch into ONE partial update (first policy to claim a field wins,
//     in the order policies were armed), applied atomically by the
//     scheduler's Update. Policies never race each other or interleave
//     half-applied configs.
//   - Hysteresis: policies act on sustained signals (calm-streak
//     counters, windowed deltas between consecutive samples), never on a
//     single noisy reading.
//   - Cooldown: a policy that just actuated holds off for a configurable
//     interval, so the loop cannot flap faster than the system can
//     respond.
//   - Arm-only-what-you-armed: reversible policies (preemption, DRR)
//     only undo settings they themselves applied. Operator configuration
//     is never fought.
//
// The last three are one state machine (latch) that every policy embeds.
//
// The controller is deterministic and clock-injected (des.Clock): under
// the DES it ticks in virtual time and replays identically; under the
// daemon it runs on wall time. With no policies armed it samples and
// does nothing — a guarantee the zero-config golden test pins.
package autoscale

import (
	"errors"
	"fmt"
	"time"

	"simfs/internal/des"
	"simfs/internal/sched"
)

// Decision is one actuation (or refusal) taken by a policy on a tick.
type Decision struct {
	// At is the controller clock's time of the tick (virtual under the
	// DES, wall-relative under the daemon).
	At time.Duration
	// Policy is the acting policy's Name.
	Policy string
	// Action describes what was actuated, e.g. "sched{nodes=6}" or
	// "cache{ctx=climate policy=LRU}".
	Action string
	// Reason is the policy's stated trigger, for the decision log.
	Reason string
}

// Options configures a Controller.
type Options struct {
	// Clock is the controller's time source (required): des.Engine under
	// the DES, des.NewWallClock() under the daemon.
	Clock des.Clock
	// OnDecision, when set, observes every decision as it is taken. The
	// controller keeps none: its observer is the decision log (simfs-ctl
	// autoscale prints one line per decision, the experiments collect
	// them).
	OnDecision func(Decision)
}

// Controller drives the loop: Sample → Evaluate each policy → merge →
// actuate. It is single-threaded by construction — TickOnce must not be
// called concurrently with itself; its caller paces the ticks (the DES
// schedules them, simfs-ctl autoscale runs a ticker).
type Controller struct {
	target   Target
	policies []Policy
	clock    des.Clock
	onDec    func(Decision)

	first bool
	prev  Sample
}

// New builds a controller over a target with an ordered policy set.
// Policy order is actuation priority: on a conflicting scheduler field,
// the earlier policy wins.
func New(target Target, policies []Policy, opts Options) (*Controller, error) {
	if target == nil {
		return nil, fmt.Errorf("autoscale: target is required")
	}
	if opts.Clock == nil {
		return nil, fmt.Errorf("autoscale: Options.Clock is required")
	}
	return &Controller{
		target:   target,
		policies: policies,
		clock:    opts.Clock,
		onDec:    opts.OnDecision,
		first:    true,
	}, nil
}

// Policies lists the armed policies' names, in actuation-priority order.
func (c *Controller) Policies() []string {
	names := make([]string, len(c.policies))
	for i, p := range c.policies {
		names[i] = p.Name()
	}
	return names
}

// TickOnce runs one control iteration: sample the target, let every
// policy compare the sample against the previous one, merge the
// scheduler patches into a single atomic update, and actuate. A sampling
// failure aborts the tick without advancing the window (the next tick
// compares against the same baseline). Failed actuations do not: the
// tick's decisions are recorded and the window advances, and then the
// failures come back joined, each naming what it tried to apply.
func (c *Controller) TickOnce() error {
	cur, err := c.target.Sample()
	if err != nil {
		return fmt.Errorf("autoscale: sample: %w", err)
	}
	t := Tick{Now: c.clock.Now(), First: c.first, Prev: c.prev, Cur: cur}

	var merged sched.Patch
	var actions []pendingAction
	for _, p := range c.policies {
		for _, a := range p.Evaluate(t) {
			if a.Patch != nil {
				merged.Merge(*a.Patch)
			}
			actions = append(actions, pendingAction{policy: p.Name(), act: a})
		}
	}

	// Single-writer actuation: one scheduler update per tick, however
	// many policies contributed fields.
	var failed []error
	if !merged.Empty() {
		if err := c.target.ApplySched(merged); err != nil {
			failed = append(failed, fmt.Errorf("autoscale: sched actuation %s failed: %w", merged, err))
		}
	}
	for _, pa := range actions {
		if cs := pa.act.Cache; cs != nil {
			if err := c.target.SetCachePolicy(cs.Ctx, cs.Policy); err != nil {
				failed = append(failed, fmt.Errorf("autoscale: cache actuation %s failed: %w", pa.act.describe(), err))
			}
		}
		if c.onDec != nil {
			c.onDec(Decision{At: t.Now, Policy: pa.policy, Action: pa.act.describe(), Reason: pa.act.Reason})
		}
	}

	c.prev = cur
	c.first = false
	return errors.Join(failed...)
}

type pendingAction struct {
	policy string
	act    Action
}
