package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"simfs/internal/autoscale"
	"simfs/internal/metrics"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// AblationAutoscale pits the closed-loop controller against every static
// configuration on a phase-changing workload, measuring cumulative
// demand queue-wait. Phase A is the contended scan mix of the preemption
// ablation: eight clients forward-scanning at P=100 under a 400-node
// budget, where preemption and a wider budget pay. Phase B starts when
// phase A drains: six clients re-reading a hot step window that fits the
// cache, where the scan phase's tuning is dead weight. Each static row
// is pinned to one cache policy for the whole run, with preemption off
// (armed statically it seldom fires on this workload; AblationPreempt
// measures it) and the provisioned 400-node budget; the controller row
// starts from the conservative baseline and steers the knobs from the
// stats stream.
// The acceptance criterion rides on the "controller" row: its demand
// wait and its class-neutral client blocked time must undercut every
// static row. Every row runs Priorities, so demand opens that land on a
// queued prefetch job promote it (the "promoted" series) and its wait
// from then on is billed to the demand ledger.
func AblationAutoscale(seed int64) (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — closed-loop autoscale vs static configs (node budget 400)", "mode", "value")
	modes := autoscaleModes()
	results, err := RunCells(0, len(modes), func(i int) (AutoscaleResult, error) {
		m := modes[i]
		cell, err := runAutoscaleCell(seed, m.cache, m.cfg, m.policies, m.tick)
		if err != nil {
			return AutoscaleResult{}, fmt.Errorf("autoscale ablation %s: %w", m.name, err)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		r := results[i]
		tab.Series("demand wait (s)").Add(mode.name, r.DemandWait.Seconds())
		tab.Series("client blocked (s)").Add(mode.name, r.Blocked.Seconds())
		tab.Series("median completion (s)").Add(mode.name, r.Median)
		tab.Series("restarts").Add(mode.name, float64(r.Restarts))
		tab.Series("preempted").Add(mode.name, float64(r.Preempted))
		tab.Series("promoted").Add(mode.name, float64(r.Promoted))
		tab.Series("decisions").Add(mode.name, float64(r.Decisions))
	}
	return tab, nil
}

// autoscaleMode is one row of the ablation: a fixed (cache × sched)
// configuration, optionally with a ticking controller attached.
type autoscaleMode struct {
	name     string
	cache    string
	cfg      sched.Config
	policies []autoscale.Policy
	tick     time.Duration
}

// autoscaleModes builds the ablation's row set. Policies carry per-run
// hysteresis state, so each call constructs fresh instances.
func autoscaleModes() []autoscaleMode {
	base := sched.Config{Coalesce: true, Priorities: true, TotalNodes: 400}
	return []autoscaleMode{
		{name: "static dcl", cache: "DCL", cfg: base},
		{name: "static lru", cache: "LRU", cfg: base},
		{name: "controller", cache: "DCL", cfg: base, tick: 10 * time.Second,
			policies: controllerPolicies()},
	}
}

// RunAutoscaleMode runs one named row of the autoscale ablation — the
// benchmark scoreboard (make bench-autoscale) prices single modes
// without paying for the whole table.
func RunAutoscaleMode(seed int64, mode string) (AutoscaleResult, error) {
	for _, m := range autoscaleModes() {
		if m.name == mode {
			return runAutoscaleCell(seed, m.cache, m.cfg, m.policies, m.tick)
		}
	}
	return AutoscaleResult{}, fmt.Errorf("autoscale ablation: unknown mode %q", mode)
}

// controllerPolicies is the controller row's policy set: every knob the
// static rows hold fixed, steered from the stats stream.
func controllerPolicies() []autoscale.Policy {
	return []autoscale.Policy{
		&autoscale.NodeBudget{Min: 400, Max: 800, Step: 100,
			HighWait: 2 * time.Second, CalmTicks: 3, Cooldown: 30 * time.Second},
		&autoscale.PreemptGovernor{
			HighWait: 2 * time.Second, CalmTicks: 6, Cooldown: 30 * time.Second},
		&autoscale.CacheSwitcher{Policies: []string{"DCL", "LRU"},
			LowHit: 0.5, MinOpens: 16, BadTicks: 2, Cooldown: 60 * time.Second},
	}
}

// AutoscaleResult is one mode's outcome.
type AutoscaleResult struct {
	DemandWait time.Duration
	// Blocked is the class-neutral client metric: total time analyses
	// spent blocked on missing files, whatever queue class served them.
	Blocked   time.Duration
	Median    float64
	Restarts  int64
	Preempted uint64
	Promoted  uint64
	Decisions int
	// Log is the controller row's full decision trail (nil on static
	// rows) — surfaced so tests can explain a regression in the figure.
	Log []autoscale.Decision
}

// runAutoscaleCell executes the two-phase workload on a fresh
// virtual-time stack, optionally with a controller attached.
func runAutoscaleCell(seed int64, cachePolicy string, cfg sched.Config, policies []autoscale.Policy, tick time.Duration) (AutoscaleResult, error) {
	ctx := simulator.CosmoScaling()
	ctx.MaxCacheBytes = 128 * ctx.OutputBytes
	// Contention lives on the node budget, not smax (as in the
	// preemption ablation).
	ctx.SMax = 10000
	eng, v, err := stackSched(ctx, cfg)
	if err != nil {
		return AutoscaleResult{}, err
	}
	if cachePolicy != "DCL" {
		if err := v.SetCachePolicy(ctx.Name, cachePolicy); err != nil {
			return AutoscaleResult{}, err
		}
	}

	const scanClients, rereadClients = 8, 6
	total := scanClients + rereadClients
	completions := make([]time.Duration, 0, total)
	analyses := make([]*Analysis, 0, total)
	remaining := total
	scanLeft := scanClients
	var aborted error
	rng := rand.New(rand.NewSource(seed))
	no := ctx.Grid.NumOutputSteps()

	// Phase B: a hot window that fits the cache comfortably, re-read
	// four times by each client. First passes miss and re-simulate;
	// later passes hit if the replacement policy keeps the window.
	hotStart := no - 200
	const hotWindow = 24
	startPhaseB := func() {
		for i := 0; i < rereadClients; i++ {
			var steps []int
			for pass := 0; pass < 4; pass++ {
				steps = append(steps, Forward(hotStart, hotWindow)...)
			}
			a := &Analysis{
				Engine: eng, V: v, Ctx: ctx,
				Client: fmt.Sprintf("reread-%d", i),
				Steps:  steps, TauCli: time.Second,
				OnDone: func(d time.Duration) {
					completions = append(completions, d)
					remaining--
				},
				OnAbort: func(msg string) { aborted = fmt.Errorf("reread: %s", msg) },
			}
			analyses = append(analyses, a)
			eng.Schedule(time.Duration(i*5)*time.Second, a.Start)
		}
	}

	// Phase A: the contended scan mix. The last completion opens phase B.
	for i := 0; i < scanClients; i++ {
		start := rng.Intn(no-400-48) + 1
		a := &Analysis{
			Engine: eng, V: v, Ctx: ctx,
			Client: fmt.Sprintf("scan-%d", i),
			Steps:  Forward(start, 48), TauCli: 2 * time.Second,
			OnDone: func(d time.Duration) {
				completions = append(completions, d)
				remaining--
				if scanLeft--; scanLeft == 0 {
					eng.Schedule(10*time.Second, startPhaseB)
				}
			},
			OnAbort: func(msg string) { aborted = fmt.Errorf("scan: %s", msg) },
		}
		analyses = append(analyses, a)
		eng.Schedule(time.Duration(rng.Intn(60))*time.Second, a.Start)
	}

	var ctrl *autoscale.Controller
	if tick > 0 {
		ctrl, err = autoscale.New(autoscale.LocalTarget{V: v}, policies,
			autoscale.Options{Clock: eng, LogSize: 256})
		if err != nil {
			return AutoscaleResult{}, err
		}
		var tickFn func()
		tickFn = func() {
			if remaining == 0 {
				return // let the event heap drain
			}
			_ = ctrl.TickOnce() // LocalTarget samples without error and accepts every patch and policy name the policies emit
			eng.Schedule(tick, tickFn)
		}
		eng.Schedule(tick, tickFn)
	}

	if !eng.Run(80_000_000) {
		return AutoscaleResult{}, fmt.Errorf("runaway event loop")
	}
	if aborted != nil {
		return AutoscaleResult{}, aborted
	}
	if len(completions) != total {
		return AutoscaleResult{}, fmt.Errorf("only %d/%d analyses completed", len(completions), total)
	}
	st, err := v.Stats(ctx.Name)
	if err != nil {
		return AutoscaleResult{}, err
	}
	ss := v.SchedStats()
	var xs []float64
	for _, d := range completions {
		xs = append(xs, d.Seconds())
	}
	cell := AutoscaleResult{
		DemandWait: ss.DemandWait.Wait,
		Median:     metrics.Summarize(xs).Median,
		Restarts:   st.Restarts,
		Preempted:  ss.Preempted,
		Promoted:   ss.Promoted,
	}
	for _, a := range analyses {
		cell.Blocked += a.Waits
	}
	if ctrl != nil {
		cell.Log = ctrl.Decisions()
		cell.Decisions = len(cell.Log)
	}
	return cell, nil
}
