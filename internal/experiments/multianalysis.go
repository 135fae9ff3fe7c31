package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"simfs/internal/autoscale"
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
	// Autoscale attaches a closed-loop controller (internal/autoscale)
	// to the run's Virtualizer, ticking in virtual time every
	// AutoscaleTick while analyses are live. With a zero tick — or an
	// empty policy set — the run is untouched: the autoscale ablation
	// steers with it, the golden test pins that attaching an unarmed
	// controller changes nothing.
	Autoscale     []autoscale.Policy
	AutoscaleTick time.Duration
}

// MultiAnalysisResult aggregates the run.
type MultiAnalysisResult struct {
	Completion []time.Duration
	Stats      core.CtxStats
	Sched      metrics.SchedStats
	// Decisions is the attached controller's log (nil without one).
	Decisions []autoscale.Decision
}

// MultiAnalysis runs several concurrent analyses over one shared
// Virtualizer in virtual time. Each analysis starts at a random output
// step; a configurable fraction scans backward. It returns per-analysis
// completion times and the shared context's counters.
func MultiAnalysis(ctx *model.Context, cfg MultiAnalysisConfig) (MultiAnalysisResult, error) {
	if cfg.Clients < 1 {
		return MultiAnalysisResult{}, fmt.Errorf("multianalysis: need at least one client")
	}
	eng, v, err := stackSched(ctx, cfg.Sched)
	if err != nil {
		return MultiAnalysisResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	no := ctx.Grid.NumOutputSteps()
	res := MultiAnalysisResult{Completion: make([]time.Duration, cfg.Clients)}
	var aborted error
	remaining := cfg.Clients

	for i := 0; i < cfg.Clients; i++ {
		i := i
		m := cfg.Steps
		var steps []int
		if float64(i) < cfg.Backward*float64(cfg.Clients) {
			start := m + rng.Intn(no-m)
			steps = BackwardSeq(start, m)
		} else {
			start := rng.Intn(no-m) + 1
			steps = Forward(start, m)
		}
		a := &Analysis{
			Engine: eng, V: v, Ctx: ctx,
			Client: fmt.Sprintf("multi-%d", i),
			Steps:  steps, TauCli: cfg.TauCli,
			OnDone:  func(d time.Duration) { res.Completion[i] = d; remaining-- },
			OnAbort: func(msg string) { aborted = fmt.Errorf("analysis %d: %s", i, msg) },
		}
		// Stagger starts a little so the overlap is partial, as in the
		// paper's workload.
		delay := time.Duration(rng.Intn(60)) * time.Second
		eng.Schedule(delay, a.Start)
	}
	var ctrl *autoscale.Controller
	if cfg.AutoscaleTick > 0 {
		var err error
		ctrl, err = autoscale.New(autoscale.LocalTarget{V: v}, cfg.Autoscale,
			autoscale.Options{Clock: eng})
		if err != nil {
			return res, err
		}
		// The tick re-arms itself only while analyses are live: a
		// perpetual controller event would keep the DES from ever
		// draining its heap.
		var tick func()
		tick = func() {
			if remaining == 0 {
				return
			}
			_ = ctrl.TickOnce() // LocalTarget samples without error and accepts every patch and policy name the policies emit
			eng.Schedule(cfg.AutoscaleTick, tick)
		}
		eng.Schedule(cfg.AutoscaleTick, tick)
	}
	if !eng.Run(80_000_000) {
		return res, fmt.Errorf("multianalysis: runaway event loop")
	}
	if ctrl != nil {
		res.Decisions = ctrl.Decisions()
	}
	if aborted != nil {
		return res, aborted
	}
	st, err := v.Stats(ctx.Name)
	if err != nil {
		return res, err
	}
	res.Stats = st
	res.Sched = v.SchedStats()
	for i, d := range res.Completion {
		if d == 0 {
			return res, fmt.Errorf("multianalysis: analysis %d never completed", i)
		}
	}
	return res, nil
}

// MultiAnalysisSweep produces a table of median completion time and
// re-simulated steps as the client count grows — cache-interference made
// visible in virtual time. Each client count is one cell on the worker
// pool (every cell builds its own Virtualizer stack, so cells share
// nothing but the immutable context).
func MultiAnalysisSweep(ctx *model.Context, clients []int, stepsEach int, tauCli time.Duration, seed int64) (*metrics.Table, error) {
	tab := metrics.NewTable("Concurrent analyses — interference sweep", "clients", "value")
	results, err := RunCells(0, len(clients), func(i int) (MultiAnalysisResult, error) {
		// Context is a value struct; a per-cell copy keeps AddContext's
		// in-place defaulting off the shared instance.
		cctx := *ctx
		return MultiAnalysis(&cctx, MultiAnalysisConfig{
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
