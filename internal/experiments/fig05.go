package experiments

import (
	"fmt"

	"simfs/internal/cache"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/simulator"
	"simfs/internal/trace"
)

// fig05TraceConfig parameterizes one concatenated analysis trace of the
// caching study — 50 analyses of 100–400 accesses each — for a given
// repetition. Traces depend only on (pattern, seed, rep), so every cell
// that needs one regenerates it deterministically instead of sharing a
// pre-materialized matrix: generation is ~0.3% of a replay's cost and a
// cell-local buffer (ReplayState.GenerateTrace) makes it allocation-free.
func fig05TraceConfig(ctx *model.Context, seed int64, rep int) trace.Config {
	return trace.Config{
		NumSteps:    ctx.Grid.NumOutputSteps(),
		NumAnalyses: 50,
		MinLen:      100,
		MaxLen:      400,
		Stride:      1,
		Seed:        seed + int64(rep)*7919,
	}
}

// Fig05Config parameterizes the replacement-scheme comparison (Fig. 5):
// a 4-day simulation (Δd = 5 min, Δr = 4 h), cache at 25% of the data
// volume, 50 concatenated analysis traces of 100–400 accesses each, with
// the experiment repeated Reps times on fresh traces and the median and
// 95% CI reported.
type Fig05Config struct {
	Reps     int
	Seed     int64
	Policies []string
	Patterns []trace.Pattern
}

// DefaultFig05 returns the paper's configuration with a bench-friendly
// repetition count (the paper uses 100; the full count is available via
// cmd/simfs-bench -reps).
func DefaultFig05() Fig05Config {
	return Fig05Config{
		Reps:     20,
		Seed:     1,
		Policies: cache.PolicyNames(),
		Patterns: trace.Patterns(),
	}
}

// Fig05 runs the comparison and returns two tables: re-simulated output
// steps (the bars of Fig. 5) and simulation restarts (the points), one row
// per access pattern and one column per replacement scheme.
//
// The pattern×policy grid runs on the worker pool; each cell replays all
// Reps traces of its pattern on one reused ReplayState, regenerating each
// rep's trace into the state's worker-pinned scratch buffer. Traces
// depend only on (pattern, Seed, rep), so the merged tables are
// bit-identical to a sequential run.
func Fig05(cfg Fig05Config) (steps, restarts *metrics.Table, err error) {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	ctx := simulator.CacheEval()
	steps = metrics.NewTable("Fig. 5 — re-simulated output steps", "pattern", "output steps")
	restarts = metrics.NewTable("Fig. 5 — simulation restarts", "pattern", "restarts")
	err = policyGrid(steps, restarts, cfg.Patterns, cfg.Policies, cfg.Reps, func(p trace.Pattern, policy string) (repFunc, error) {
		st, err := NewReplayState(ctx, policy)
		if err != nil {
			return nil, err
		}
		return func(rep int) (float64, float64, error) {
			tr, err := st.GenerateTrace(p, fig05TraceConfig(ctx, cfg.Seed, rep))
			if err != nil {
				return 0, 0, err
			}
			res, err := ReplayInto(st, ctx, tr)
			return float64(res.ProducedSteps), float64(res.Restarts), err
		}, nil
	})
	return steps, restarts, err
}

// repFunc runs one repetition of a policyGrid cell and returns its
// re-simulated output steps and restarts.
type repFunc func(rep int) (steps, restarts float64, err error)

// policyGrid runs the pattern × policy grid of the caching study on the
// worker pool, one cell per (pattern, policy): newCell builds the cell's
// state (a replay cache, trace buffers), and the cell runs reps
// repetitions on it. The results fill steps and restarts in pattern ×
// policy × rep order, one series per policy, so the tables are
// bit-identical to a sequential run for any worker count.
func policyGrid(steps, restarts *metrics.Table, patterns []trace.Pattern, policies []string, reps int,
	newCell func(p trace.Pattern, policy string) (repFunc, error)) error {
	type cellResult struct{ steps, restarts []float64 }
	n := len(policies)
	results, err := RunCells(0, len(patterns)*n, func(i int) (cellResult, error) {
		p, policy := patterns[i/n], policies[i%n]
		rep, err := newCell(p, policy)
		if err != nil {
			return cellResult{}, err
		}
		r := cellResult{make([]float64, reps), make([]float64, reps)}
		for k := range reps {
			if r.steps[k], r.restarts[k], err = rep(k); err != nil {
				return cellResult{}, fmt.Errorf("%s/%s: %w", p, policy, err)
			}
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	for i, r := range results {
		p, policy := string(patterns[i/n]), policies[i%n]
		for k := range reps {
			steps.Series(policy).Add(p, r.steps[k])
			restarts.Series(policy).Add(p, r.restarts[k])
		}
	}
	return nil
}
