package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// Ablation studies for the design choices DESIGN.md calls out. They are
// not paper figures; they quantify how much each mechanism contributes.
// Like the figure runners, each sweep fans its independent cells across
// the worker pool and merges in configuration order.

// AblationPrefetchStrategies compares analysis completion time with
// prefetching disabled, with a single prefetched simulation (masking
// only, smax=1 leaves no room beyond the demand simulation), and with
// full bandwidth matching at increasing smax. COSMO configuration, m=72.
func AblationPrefetchStrategies() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — prefetch strategies (COSMO, m=72)", "mode", "running time (s)")
	const m = 72
	tauCli := 100 * time.Millisecond

	modes := []struct {
		name string
		mut  func(*model.Context)
	}{
		{"no prefetch", func(c *model.Context) { c.NoPrefetch = true }},
		{"masking only (smax=2)", func(c *model.Context) { c.SMax = 2 }},
		{"bandwidth (smax=4)", func(c *model.Context) { c.SMax = 4 }},
		{"bandwidth (smax=8)", func(c *model.Context) { c.SMax = 8 }},
	}
	results, err := RunCells(0, len(modes), func(i int) (time.Duration, error) {
		ctx := scalingCtx(simulator.CosmoScaling, 8)
		modes[i].mut(ctx)
		elapsed, err := runAnalysis(ctx, Forward(1, m), tauCli, nil)
		if err != nil {
			return 0, fmt.Errorf("ablation %s: %w", modes[i].name, err)
		}
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		tab.Series("forward").Add(mode.name, results[i].Seconds())
	}
	return tab, nil
}

// AblationDoubling compares the s-doubling ramp-up against launching sopt
// simulations immediately at each prefetching step (Sec. IV-B1b's
// trade-off between reactivity and wasted work).
func AblationDoubling() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — ramp-up vs immediate sopt (COSMO, m=144)", "mode", "value")
	const m = 144
	tauCli := 100 * time.Millisecond
	modes := []string{"immediate", "doubling"}
	type result struct {
		elapsed  time.Duration
		produced float64
		launches float64
	}
	results, err := RunCells(0, len(modes), func(i int) (result, error) {
		ctx := scalingCtx(simulator.CosmoScaling, 8)
		ctx.RampUp = modes[i] == "doubling"
		r, err := newRun(ctx, "DCL", sched.Config{}, nil)
		if err != nil {
			return result{}, err
		}
		var elapsed time.Duration
		r.analysis("abl", Forward(1, m), tauCli, func(d time.Duration) { elapsed = d }).Start()
		if err := r.finish(); err != nil {
			return result{}, fmt.Errorf("ablation doubling (%s): %w", modes[i], err)
		}
		st, err := r.v.Stats(r.ctx.Name)
		if err != nil {
			return result{}, err
		}
		return result{elapsed, float64(st.StepsProduced), float64(st.Restarts)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range modes {
		tab.Series("running time (s)").Add(name, results[i].elapsed.Seconds())
		// Wasted work: produced steps beyond what the analysis read.
		tab.Series("steps produced").Add(name, results[i].produced)
		tab.Series("launches").Add(name, results[i].launches)
	}
	return tab, nil
}

// AblationEMA measures the αsim-estimation quality under noisy batch
// queueing: analysis completion time for different EMA smoothing factors
// when queueing delays are exponentially distributed (Sec. IV-C1c). Each
// factor runs once per queue seed, added to its row the way Fig. 5 adds
// its repetitions, so a row is a median over queue draws. The analysis
// reads at τcli = 3 s, slower than k·τsim: at a faster τcli the agent's
// fast-analysis lead outgrows every runway and the estimate reaches no
// launch (DESIGN.md, "Where the αsim estimate reaches a launch").
func AblationEMA() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — EMA smoothing under queueing noise (COSMO, m=144, τcli=3s, 40 queue seeds)", "smoothing", "running time (s)")
	const m, seeds = 144, 40
	factors := []float64{0.1, 0.3, 0.5, 0.9}
	results, err := RunCells(0, len(factors)*seeds, func(i int) (time.Duration, error) {
		f, seed := factors[i/seeds], int64(i%seeds+1)
		ctx := scalingCtx(simulator.CosmoScaling, 8)
		ctx.AlphaSmoothing = f
		rng := rand.New(rand.NewSource(seed))
		queue := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(60*time.Second)) }
		elapsed, err := runAnalysis(ctx, Forward(1, m), 3*time.Second, queue)
		if err != nil {
			return 0, fmt.Errorf("ablation EMA f=%.1f seed %d: %w", f, seed, err)
		}
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range results {
		tab.Series("forward").Add(fmt.Sprintf("%.1f", factors[i/seeds]), d.Seconds())
	}
	return tab, nil
}
