package experiments

import (
	"fmt"
	"time"

	"simfs/internal/batch"
	"simfs/internal/cache"
	"simfs/internal/metrics"
	"simfs/internal/model"
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
	modes := []bool{false, true}
	type result struct {
		elapsed  time.Duration
		produced float64
		launches float64
	}
	results, err := RunCells(0, len(modes), func(i int) (result, error) {
		rampUp := modes[i]
		ctx := scalingCtx(simulator.CosmoScaling, 8)
		ctx.RampUp = rampUp
		name := "immediate"
		if rampUp {
			name = "doubling"
		}
		eng, v, err := stackFor(ctx)
		if err != nil {
			return result{}, err
		}
		var elapsed time.Duration
		a := &Analysis{Engine: eng, V: v, Ctx: ctx, Client: "abl", Steps: Forward(1, m), TauCli: tauCli,
			OnDone: func(d time.Duration) { elapsed = d }}
		a.Start()
		if !eng.Run(20_000_000) {
			return result{}, fmt.Errorf("ablation doubling (%s): runaway", name)
		}
		st, _ := v.Stats(ctx.Name)
		return result{elapsed, float64(st.StepsProduced), float64(st.Restarts)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rampUp := range modes {
		name := "immediate"
		if rampUp {
			name = "doubling"
		}
		tab.Series("running time (s)").Add(name, results[i].elapsed.Seconds())
		// Wasted work: produced steps beyond what the analysis read.
		tab.Series("steps produced").Add(name, results[i].produced)
		tab.Series("launches").Add(name, results[i].launches)
	}
	return tab, nil
}

// AblationPinPressure measures how each replacement scheme copes when a
// growing fraction of the cache is pinned by concurrent analyses: the
// number of forced overflows (inserts that found every candidate pinned).
func AblationPinPressure() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — eviction under pin pressure", "pinned fraction", "overflow events")
	const capacity = 64
	fracs := []float64{0, 0.25, 0.5, 0.9}
	type cell struct {
		pol  string
		frac float64
	}
	var cells []cell
	for _, pol := range cache.PolicyNames() {
		for _, frac := range fracs {
			cells = append(cells, cell{pol, frac})
		}
	}
	results, err := RunCells(0, len(cells), func(i int) (float64, error) {
		pol, frac := cells[i].pol, cells[i].frac
		p, err := cache.NewPolicyOf[int](pol, capacity)
		if err != nil {
			return 0, err
		}
		c := cache.NewOf(p, capacity) // 1-byte entries
		pinned := int(frac * capacity)
		// Keys 0..capacity-1 are the base set, capacity.. the newcomers.
		for i := 0; i < capacity; i++ {
			if _, err := c.InsertDiscard(i, 1, 1); err != nil {
				return 0, err
			}
		}
		n := 0
		for i := 0; i < capacity && n < pinned; i++ {
			if c.Pin(i) == nil {
				n++
			}
		}
		for i := 0; i < 4*capacity; i++ {
			if _, err := c.InsertDiscard(capacity+i, 1, i%12+1); err != nil {
				return 0, err
			}
		}
		return float64(c.Stats().PinBlocked), nil
	})
	if err != nil {
		return nil, err
	}
	for i, cl := range cells {
		tab.Series(cl.pol).Add(fmt.Sprintf("%.0f%%", cl.frac*100), results[i])
	}
	return tab, nil
}

// AblationEMA measures the αsim-estimation quality under noisy batch
// queueing: analysis completion time for different EMA smoothing factors
// when queueing delays are exponentially distributed (Sec. IV-C1c).
func AblationEMA() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — EMA smoothing under queueing noise (COSMO, m=144)", "smoothing", "running time (s)")
	const m = 144
	factors := []float64{0.1, 0.3, 0.5, 0.9}
	results, err := RunCells(0, len(factors), func(i int) (time.Duration, error) {
		f := factors[i]
		ctx := scalingCtx(simulator.CosmoScaling, 8)
		ctx.AlphaSmoothing = f
		queue := batch.NewExponential(60*time.Second, 7)
		elapsed, err := runAnalysis(ctx, Forward(1, m), 100*time.Millisecond, queue)
		if err != nil {
			return 0, fmt.Errorf("ablation EMA f=%.1f: %w", f, err)
		}
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	for i, f := range factors {
		tab.Series("forward").Add(fmt.Sprintf("%.1f", f), results[i].Seconds())
	}
	return tab, nil
}

// AblationPolicyOnWorkloads extends Fig. 5 with per-policy hit rates, the
// ingredient behind the produced-steps differences.
func AblationPolicyOnWorkloads() (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — hit rates by policy and pattern", "pattern", "hit rate")
	cfg := DefaultFig05()
	cfg.Reps = 5
	ctx := simulator.CacheEval()
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
	results, err := RunCells(0, len(cells), func(i int) ([]float64, error) {
		c := cells[i]
		st, err := NewReplayState(ctx, c.pol)
		if err != nil {
			return nil, err
		}
		rates := make([]float64, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			tr, err := st.GenerateTrace(cfg.Patterns[c.patIdx], fig05TraceConfig(ctx, cfg.Seed, rep))
			if err != nil {
				return nil, err
			}
			res, err := ReplayInto(st, ctx, tr)
			if err != nil {
				return nil, err
			}
			if res.Accesses > 0 {
				rates[rep] = float64(res.Hits) / float64(res.Accesses)
			}
		}
		return rates, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		for _, rate := range results[i] {
			tab.Series(c.pol).Add(string(cfg.Patterns[c.patIdx]), rate)
		}
	}
	return tab, nil
}
