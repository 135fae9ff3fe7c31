package experiments

import (
	"fmt"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/prefetch"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// runAnalysis executes one synthetic analysis on a fresh virtual-time
// SimFS instance and returns its completion time. queue optionally adds a
// batch queueing delay to every re-simulation (the αsim sweep of
// Figs. 17/19).
func runAnalysis(ctx *model.Context, steps []int, tauCli time.Duration, queue func() time.Duration) (time.Duration, error) {
	r, err := newRun(ctx, "DCL", sched.Config{}, queue)
	if err != nil {
		return 0, err
	}
	var elapsed time.Duration
	r.analysis("analysis-0", steps, tauCli, func(d time.Duration) { elapsed = d }).Start()
	err = r.finish()
	return elapsed, err
}

// scalingCtx prepares a context for the strong-scaling experiments:
// unbounded cache (the experiment studies prefetching, not eviction) and
// the given smax.
func scalingCtx(base func() *model.Context, smax int) *model.Context {
	ctx := base()
	ctx.MaxCacheBytes = 0
	ctx.SMax = smax
	ctx.NoPrefetch = false
	return ctx
}

// Scaling runs the strong-scaling experiment of Figs. 16 (COSMO) and 18
// (FLASH): the completion time of a forward and a backward analysis over
// m output steps as a function of smax, against the full forward
// re-simulation reference (a single simulation producing the same
// sequence). Each smax point runs its two DES simulations as one
// independent cell on the worker pool.
func Scaling(title string, base func() *model.Context, m int, tauCli time.Duration, smaxes []int) (*metrics.Table, error) {
	tab := metrics.NewTable(title, "smax", "running time (s)")
	ref := base()
	single := prefetch.TSingle(ref.Alpha, ref.Tau, m)
	type pair struct{ fwd, bwd time.Duration }
	results, err := RunCells(0, len(smaxes), func(i int) (pair, error) {
		smax := smaxes[i]
		fwd, err := runAnalysis(scalingCtx(base, smax), Forward(1, m), tauCli, nil)
		if err != nil {
			return pair{}, fmt.Errorf("scaling smax=%d forward: %w", smax, err)
		}
		bwd, err := runAnalysis(scalingCtx(base, smax), BackwardSeq(m, m), tauCli, nil)
		if err != nil {
			return pair{}, fmt.Errorf("scaling smax=%d backward: %w", smax, err)
		}
		return pair{fwd, bwd}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, smax := range smaxes {
		x := fmt.Sprintf("%d", smax)
		tab.Series("Forward").Add(x, results[i].fwd.Seconds())
		tab.Series("Backward").Add(x, results[i].bwd.Seconds())
		tab.Series("Full Forward Resimulation").Add(x, single.Seconds())
	}
	return tab, nil
}

// Fig16 is the COSMO strong-scaling experiment: m = 72 output steps (the
// first 6 hours of simulated data), τsim = 3 s, αsim = 13 s.
func Fig16() (*metrics.Table, error) {
	return Scaling("Fig. 16 — COSMO strong scaling", simulator.CosmoScaling, 72,
		100*time.Millisecond, []int{2, 4, 8, 16})
}

// Fig18 is the FLASH strong-scaling experiment: m = 200 output steps
// (1 s of blast-wave evolution), τsim = 14 s, αsim = 7 s.
func Fig18() (*metrics.Table, error) {
	return Scaling("Fig. 18 — FLASH strong scaling", simulator.Flash, 200,
		100*time.Millisecond, []int{2, 4, 8, 16})
}

// Latency runs the restart-latency sweep of Figs. 17 (COSMO) and 19
// (FLASH): the analysis running time under increasing αsim (modeling job
// queueing times) for several analysis lengths, with smax = 8, against
// the analytic references Tsingle, Tpre and Tlower.
// The (m, αsim) grid runs on the worker pool, one DES simulation per
// cell.
func Latency(title string, base func() *model.Context, ms []int, alphas []time.Duration, tauCli time.Duration) ([]*metrics.Table, error) {
	type cell struct {
		m     int
		alpha time.Duration
	}
	var cells []cell
	for _, m := range ms {
		for _, alpha := range alphas {
			cells = append(cells, cell{m, alpha})
		}
	}
	results, err := RunCells(0, len(cells), func(i int) (time.Duration, error) {
		c := cells[i]
		ctx := scalingCtx(base, 8)
		ctx.Alpha = c.alpha
		elapsed, err := runAnalysis(ctx, Forward(1, c.m), tauCli, nil)
		if err != nil {
			return 0, fmt.Errorf("latency m=%d α=%v: %w", c.m, c.alpha, err)
		}
		return elapsed, nil
	})
	if err != nil {
		return nil, err
	}
	var tables []*metrics.Table
	i := 0
	for _, m := range ms {
		tab := metrics.NewTable(fmt.Sprintf("%s (m=%d)", title, m), "αsim (s)", "running time (s)")
		for _, alpha := range alphas {
			x := fmt.Sprintf("%.0f", alpha.Seconds())
			ctx := scalingCtx(base, 8)
			ctx.Alpha = alpha
			tab.Series("SimFS").Add(x, results[i].Seconds())
			i++

			n := prefetch.ForwardResimLength(ctx.Grid, 1, alpha, ctx.Tau, tauCli)
			tab.Series("Tsingle").Add(x, prefetch.TSingle(alpha, ctx.Tau, m).Seconds())
			tab.Series("Tpre").Add(x, prefetch.ForwardWarmup(alpha, ctx.Tau, n).Seconds())
			tab.Series("Tlower").Add(x, prefetch.TLower(alpha, ctx.Tau, m, 8).Seconds())
		}
		tables = append(tables, tab)
	}
	return tables, nil
}

// Fig17 is the COSMO latency sweep: m ∈ {72, 288, 1152} (6h, 24h, 96h of
// simulated data), αsim from the native 13 s up to 600 s of queueing.
func Fig17() ([]*metrics.Table, error) {
	return Latency("Fig. 17 — COSMO prefetching vs restart latency", simulator.CosmoScaling,
		[]int{72, 288, 1152},
		[]time.Duration{13 * time.Second, 100 * time.Second, 200 * time.Second, 400 * time.Second, 600 * time.Second},
		100*time.Millisecond)
}

// Fig19 is the FLASH latency sweep: m ∈ {200, 400, 600} (1–3 s of
// blast-wave evolution), αsim from the native 7 s up to 600 s.
func Fig19() ([]*metrics.Table, error) {
	return Latency("Fig. 19 — FLASH prefetching vs restart latency", simulator.Flash,
		[]int{200, 400, 600},
		[]time.Duration{7 * time.Second, 100 * time.Second, 200 * time.Second, 400 * time.Second, 600 * time.Second},
		100*time.Millisecond)
}
