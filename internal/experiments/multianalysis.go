package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"simfs/internal/core"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/sched"
)

// MultiAnalysisConfig parameterizes the concurrent-analyses experiment:
// the virtual-time analogue of the paper's overlap study (Sec. V-A), where
// interleaved analyses with different working sets compete for one cache.
type MultiAnalysisConfig struct {
	Clients  int
	Steps    int // accesses per analysis
	TauCli   time.Duration
	Seed     int64
	Backward float64 // fraction of clients scanning backward
	// Sched selects the re-simulation scheduling policy (zero value =
	// the paper-exact default); the scheduler ablation sweeps it.
	Sched sched.Config
}

// MultiAnalysisResult aggregates the run.
type MultiAnalysisResult struct {
	Completion []time.Duration
	Stats      core.CtxStats
	Sched      metrics.SchedStats
}

// MultiAnalysis runs several concurrent analyses over one shared
// Virtualizer in virtual time. Each analysis starts at a random output
// step; a configurable fraction scans backward. It returns per-analysis
// completion times and the shared context's counters.
func MultiAnalysis(ctx *model.Context, cfg MultiAnalysisConfig) (MultiAnalysisResult, error) {
	if cfg.Clients < 1 {
		return MultiAnalysisResult{}, fmt.Errorf("multianalysis: need at least one client")
	}
	r, err := newRun(ctx, "DCL", cfg.Sched, nil)
	if err != nil {
		return MultiAnalysisResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	no := ctx.Grid.NumOutputSteps()
	res := MultiAnalysisResult{Completion: make([]time.Duration, cfg.Clients)}
	for i := range cfg.Clients {
		m := cfg.Steps
		var steps []int
		if float64(i) < cfg.Backward*float64(cfg.Clients) {
			start := m + rng.Intn(no-m)
			steps = BackwardSeq(start, m)
		} else {
			start := rng.Intn(no-m) + 1
			steps = Forward(start, m)
		}
		a := r.analysis(fmt.Sprintf("multi-%d", i), steps, cfg.TauCli,
			func(d time.Duration) { res.Completion[i] = d })
		// Stagger starts a little so the overlap is partial, as in the
		// paper's workload.
		delay := time.Duration(rng.Intn(60)) * time.Second
		r.eng.Schedule(delay, a.Start)
	}
	if err := r.finish(); err != nil {
		return res, err
	}
	res.Stats, err = r.v.Stats(r.ctx.Name)
	res.Sched = r.v.SchedStats()
	return res, err
}

// MultiAnalysisSweep produces a table of median completion time and
// re-simulated steps as the client count grows — cache-interference made
// visible in virtual time. Each client count is one cell on the worker
// pool (every cell builds its own Virtualizer stack, so cells share
// nothing but the immutable context).
func MultiAnalysisSweep(ctx *model.Context, clients []int, stepsEach int, tauCli time.Duration, seed int64) (*metrics.Table, error) {
	tab := metrics.NewTable("Concurrent analyses — interference sweep", "clients", "value")
	results, err := RunCells(0, len(clients), func(i int) (MultiAnalysisResult, error) {
		return MultiAnalysis(ctx, MultiAnalysisConfig{
			Clients: clients[i], Steps: stepsEach, TauCli: tauCli, Seed: seed, Backward: 0.25,
		})
	})
	if err != nil {
		return nil, err
	}
	for i, n := range clients {
		r := results[i]
		x := fmt.Sprintf("%d", n)
		var xs []float64
		for _, d := range r.Completion {
			xs = append(xs, d.Seconds())
		}
		tab.Series("median completion (s)").Add(x, metrics.Summarize(xs).Median)
		tab.Series("steps produced").Add(x, float64(r.Stats.StepsProduced))
		tab.Series("restarts").Add(x, float64(r.Stats.Restarts))
	}
	return tab, nil
}
