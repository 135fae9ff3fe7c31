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
	// Workers bounds the experiment worker pool (0 = the package default,
	// see SetWorkers). Any value produces identical tables; cells are
	// seeded per (pattern, rep) and merged in a fixed order.
	Workers int
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

	type cell struct {
		patIdx int
		pol    string
	}
	var cells []cell
	for p := range cfg.Patterns {
		for _, pol := range cfg.Policies {
			cells = append(cells, cell{p, pol})
		}
	}
	type cellResult struct {
		steps    []float64
		restarts []float64
	}
	results, err := RunCells(cfg.Workers, len(cells), func(i int) (cellResult, error) {
		c := cells[i]
		st, err := NewReplayState(ctx, c.pol)
		if err != nil {
			return cellResult{}, err
		}
		r := cellResult{
			steps:    make([]float64, cfg.Reps),
			restarts: make([]float64, cfg.Reps),
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			tr, err := st.GenerateTrace(cfg.Patterns[c.patIdx], fig05TraceConfig(ctx, cfg.Seed, rep))
			if err != nil {
				return cellResult{}, err
			}
			res, err := ReplayInto(st, ctx, tr)
			if err != nil {
				return cellResult{}, fmt.Errorf("fig05 %s/%s: %w", cfg.Patterns[c.patIdx], c.pol, err)
			}
			r.steps[rep] = float64(res.ProducedSteps)
			r.restarts[rep] = float64(res.Restarts)
		}
		return r, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, c := range cells {
		pat := string(cfg.Patterns[c.patIdx])
		for rep := 0; rep < cfg.Reps; rep++ {
			steps.Series(c.pol).Add(pat, results[i].steps[rep])
			restarts.Series(c.pol).Add(pat, results[i].restarts[rep])
		}
	}
	return steps, restarts, nil
}
