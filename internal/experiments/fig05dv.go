package experiments

import (
	"math/rand"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/sched"
	"simfs/internal/simulator"
	"simfs/internal/trace"
)

// Fig05DV runs the replacement-scheme comparison through the full Data
// Virtualizer in virtual time — prefetch agents, kill-on-redirect,
// reference counting and all — instead of the timing-free replay of
// Fig05. It cross-validates the replay's lazy-production model: the same
// ordering of schemes must emerge from the real machinery. It is slower
// than Fig05, so it defaults to fewer, shorter traces.
//
// The pattern×policy grid is Fig05's; each cell regenerates its per-rep
// traces (deterministic in pattern and seed+rep) into cell-local buffers
// and replays each as one synthetic analysis over a fresh Virtualizer
// with the cell's replacement policy.
func Fig05DV(reps, analyses int, seed int64, policies []string, patterns []trace.Pattern) (steps, restarts *metrics.Table, err error) {
	if reps < 1 {
		reps = 1
	}
	if analyses < 1 {
		analyses = 10
	}
	ctx := simulator.CacheEval()
	steps = metrics.NewTable("Fig. 5 (full DV) — re-simulated output steps", "pattern", "output steps")
	restarts = metrics.NewTable("Fig. 5 (full DV) — simulation restarts", "pattern", "restarts")
	err = policyGrid(steps, restarts, patterns, policies, reps, func(p trace.Pattern, policy string) (repFunc, error) {
		// Cell-local scratch: the rng, the trace and its step sequence
		// are reused by every rep of this cell.
		rng := rand.New(rand.NewSource(seed))
		var tr []trace.Access
		var accesses []int
		return func(rep int) (float64, float64, error) {
			var err error
			tr, err = trace.GenerateWith(rng, tr, p, trace.Config{
				NumSteps:    ctx.Grid.NumOutputSteps(),
				NumAnalyses: analyses,
				MinLen:      100,
				MaxLen:      400,
				Stride:      1,
				Seed:        seed + int64(rep)*104729,
			})
			if err != nil {
				return 0, 0, err
			}
			accesses = accesses[:0]
			for _, a := range tr {
				accesses = append(accesses, a.Step)
			}
			r, err := newRun(ctx, policy, sched.Config{}, nil)
			if err != nil {
				return 0, 0, err
			}
			r.analysis("trace", accesses, 100*time.Millisecond, nil).Start()
			if err := r.finish(); err != nil {
				return 0, 0, err
			}
			st, err := r.v.Stats(ctx.Name)
			return float64(st.StepsProduced), float64(st.Restarts), err
		}, nil
	})
	return steps, restarts, err
}
