package autoscale

import (
	"fmt"
	"time"

	"simfs/internal/sched"
)

// DRRTuner arms the scheduler's deficit-round-robin quantum when the
// measured per-client demand load is skewed — one client submitting a
// dominant share of the window's demand steps — and disarms it when the
// load evens out. It requires priority queueing (DRR is scoped inside a
// priority class) and only disarms a quantum it armed itself.
type DRRTuner struct {
	// Quantum is the step credit to arm (default 4).
	Quantum int
	// HighSkew is the trigger: max per-client share of the window's
	// steps, normalized by the active-client count, so 1.0 is a
	// perfectly even split (default 3 — one client at 3× its fair
	// share).
	HighSkew float64
	// MinSteps is the minimum demand steps in the window to judge
	// (default 32).
	MinSteps uint64
	// CalmTicks is the even-load streak before disarming (default 3).
	CalmTicks int
	// Cooldown is the minimum controller time between actuations.
	Cooldown time.Duration

	latch
}

func (p *DRRTuner) Name() string { return "drr-tuner" }

// skew measures the window's per-client imbalance: the dominant client's
// share of the delta steps, scaled by the number of active clients
// (share × n), so an even split scores 1 regardless of client count.
// Returns 0 when the window has too little traffic to judge.
func (p *DRRTuner) skew(t Tick) float64 {
	var total, max uint64
	active := 0
	for client, cur := range t.Cur.Loads { //simfs:allow maporder sum, count and max are commutative; the result is order-free
		d := cur - t.Prev.Loads[client]
		if d == 0 {
			continue
		}
		total += d
		active++
		if d > max {
			max = d
		}
	}
	if total < orDefault(p.MinSteps, 32) || active < 2 {
		return 0
	}
	return float64(max) * float64(active) / float64(total)
}

func (p *DRRTuner) Evaluate(t Tick) []Action {
	if t.First || !t.Cur.Cfg.Priorities { // DRR is scoped inside priority classes
		return nil
	}
	if p.cooling(t.Now, p.Cooldown) {
		return nil
	}
	highSkew := orDefault(p.HighSkew, 3)
	calmTicks := orDefault(p.CalmTicks, 3)
	switch skew := p.skew(t); {
	case skew >= highSkew:
		// Not when the operator already armed fairness, or we did.
		if p.arm(t.Now, t.Cur.Cfg.DRRQuantum != 0) {
			return []Action{{
				Patch:  &sched.Patch{DRRQuantum: ptr(orDefault(p.Quantum, 4))},
				Reason: fmt.Sprintf("client skew %.1f ≥ %.1f this window", skew, highSkew),
			}}
		}
	case p.disarm(t.Now, calmTicks):
		return []Action{{
			Patch:  &sched.Patch{DRRQuantum: ptr(0)},
			Reason: fmt.Sprintf("client load even for %d ticks", calmTicks),
		}}
	}
	return nil
}
