package experiments

import (
	"fmt"
	"math/rand"

	"simfs/internal/cache"
	"simfs/internal/model"
	"simfs/internal/trace"
)

// ReplayResult reports the re-simulation work caused by a trace: the bars
// (simulated output steps) and points (restarted simulations) of Fig. 5,
// and the V(γ∆t) term of the SimFS cost model.
type ReplayResult struct {
	Accesses      int
	Hits          int
	Misses        int
	Restarts      int
	ProducedSteps int
	Evictions     int
}

// ReplayState is a reusable policy+cache pair for repeated replays. The
// cache is keyed by output step, as the Virtualizer's is, so no file name
// is formatted per access; the rep loops of the caching study reset and
// reuse one state per (pattern, policy) cell instead of allocating a
// fresh policy and cache per replay. The state also carries a trace scratch buffer: a cell runs
// wholly on one worker of the experiment pool, so the buffer is
// worker-pinned and the rep loops regenerate each repetition's trace into
// it instead of allocating (or pre-materializing) one slice per rep.
type ReplayState struct {
	c        *cache.StepCache
	traceBuf []trace.Access
	rng      *rand.Rand
}

// GenerateTrace regenerates a deterministic trace into the state's
// reusable buffer. The accesses are identical to trace.Generate's for the
// same (pattern, config); the returned slice is only valid until the next
// GenerateTrace call on this state. The rng is worker-pinned alongside
// the buffer, so a warmed state regenerates without allocating.
func (st *ReplayState) GenerateTrace(p trace.Pattern, cfg trace.Config) ([]trace.Access, error) {
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	tr, err := trace.GenerateWith(st.rng, st.traceBuf, p, cfg)
	if err != nil {
		return nil, err
	}
	st.traceBuf = tr
	return tr, nil
}

// NewReplayState builds a replay state for one context and replacement
// scheme.
func NewReplayState(ctx *model.Context, policyName string) (*ReplayState, error) {
	capacity := ctx.CacheCapacitySteps()
	if capacity == 0 {
		capacity = ctx.Grid.NumOutputSteps()
	}
	pol, err := cache.NewPolicy(policyName, capacity)
	if err != nil {
		return nil, err
	}
	return &ReplayState{c: cache.NewStepCache(pol, ctx.MaxCacheBytes)}, nil
}

// Replay runs an access trace through the caching layer without timing,
// modeling the DV's behavior as seen by a sequential analysis:
//
//   - A miss on output step di restarts a simulation from the closest
//     previous restart step, which produces (and caches) the steps up to
//     di; the simulation would keep running to the next restart step
//     (Sec. II-A's spatial locality).
//   - While the subsequent accesses stay within the running simulation's
//     interval, it keeps producing forward lazily — a forward scan rides
//     one simulation per restart interval.
//   - When an access redirects elsewhere (random jump, backward move past
//     the interval start), SimFS kills the now-useless simulation
//     (Sec. IV-C), so the steps beyond the last one consumed are never
//     produced.
//
// The net effect is the cost model of Sec. III-D: a miss on di costs its
// distance from the closest previous restart step, which is exactly what
// the cost-aware replacement schemes (BCL/DCL) optimize for.
func Replay(ctx *model.Context, policyName string, accesses []trace.Access) (ReplayResult, error) {
	st, err := NewReplayState(ctx, policyName)
	if err != nil {
		return ReplayResult{}, err
	}
	return ReplayInto(st, ctx, accesses)
}

// ReplayInto replays a trace on a reused state (see Replay for the
// model). The state is reset first, so each call is independent; reusing
// one state across the repetitions of an experiment cell keeps the
// policy/cache construction out of the rep loop.
func ReplayInto(st *ReplayState, ctx *model.Context, accesses []trace.Access) (ReplayResult, error) {
	var res ReplayResult
	st.c.Reset()
	g := ctx.Grid
	c := st.c

	// The running simulation: produced steps in (simFirst-1, simUpTo],
	// can lazily extend to simLast.
	simUpTo, simLast := 0, -1

	produce := func(from, to int) error {
		for s := from; s <= to; s++ {
			res.ProducedSteps++
			evictions, err := c.InsertDiscard(s, ctx.OutputBytes, g.MissCost(s))
			if err != nil {
				return err
			}
			res.Evictions += evictions
		}
		return nil
	}

	for _, acc := range accesses {
		if !g.ValidOutput(acc.Step) {
			return res, fmt.Errorf("replay: access to invalid step %d", acc.Step)
		}
		res.Accesses++
		if c.Touch(acc.Step) {
			res.Hits++
			continue
		}
		res.Misses++
		if acc.Step > simUpTo && acc.Step <= simLast {
			// The running simulation covers it: extend production.
			if err := produce(simUpTo+1, acc.Step); err != nil {
				return res, err
			}
			simUpTo = acc.Step
			continue
		}
		// Redirect: the running simulation (if any) is killed; restart
		// from the closest previous restart step.
		iv, err := g.ResimInterval(acc.Step)
		if err != nil {
			return res, err
		}
		first, last, ok := g.OutputsIn(iv)
		if !ok {
			return res, fmt.Errorf("replay: empty re-simulation interval for step %d", acc.Step)
		}
		res.Restarts++
		if err := produce(first, acc.Step); err != nil {
			return res, err
		}
		simUpTo, simLast = acc.Step, last
	}
	return res, nil
}
