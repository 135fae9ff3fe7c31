package autoscale

import (
	"fmt"
	"time"

	"simfs/internal/sched"
)

// NodeBudget governs the scheduler's global node budget: it widens when
// demand-class queue wait grows across a tick and shrinks back after a
// calm streak, within [Min, Max]. It is inert while the budget is
// unlimited (TotalNodes == 0) — there is nothing to widen — and never
// crosses its bounds, so an operator's hard ceiling holds.
type NodeBudget struct {
	// Min and Max bound the budget (Min must be ≥ 1).
	Min, Max int
	// Step is the widen/shrink increment (default 1).
	Step int
	// HighWait is the per-tick demand-wait growth that triggers widening
	// (default 500ms).
	HighWait time.Duration
	// CalmTicks is the number of consecutive below-threshold ticks
	// before shrinking (default 3) — the hysteresis band.
	CalmTicks int
	// Cooldown is the minimum controller time between actuations.
	Cooldown time.Duration

	latch
}

func (p *NodeBudget) Name() string { return "node-budget" }

func (p *NodeBudget) Evaluate(t Tick) []Action {
	if t.First {
		return nil
	}
	nodes := t.Cur.Cfg.TotalNodes
	if nodes == 0 {
		return nil // unlimited budget: nothing to govern
	}
	if p.cooling(t.Now, p.Cooldown) {
		return nil
	}
	step := orDefault(p.Step, 1)
	highWait := orDefault(p.HighWait, 500*time.Millisecond)
	calmTicks := orDefault(p.CalmTicks, 3)
	if delta := t.demandWaitDelta(); delta >= highWait {
		p.streak = 0
		if p.Max > 0 && nodes >= p.Max {
			return nil // pinned at the ceiling; keep watching
		}
		next := nodes + step
		if p.Max > 0 && next > p.Max {
			next = p.Max
		}
		p.fire(t.Now)
		return []Action{{
			Patch:  &sched.Patch{TotalNodes: &next},
			Reason: fmt.Sprintf("demand wait grew %v ≥ %v this tick", delta, highWait),
		}}
	}
	p.streak++
	min := max(p.Min, 1)
	if p.streak >= calmTicks && nodes > min {
		next := max(nodes-step, min)
		p.fire(t.Now)
		return []Action{{
			Patch:  &sched.Patch{TotalNodes: &next},
			Reason: fmt.Sprintf("demand wait calm for %d ticks", calmTicks),
		}}
	}
	return nil
}
