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
	r, err := newRun(ctx, cachePolicy, cfg, nil)
	if err != nil {
		return AutoscaleResult{}, err
	}

	const scanClients, rereadClients = 8, 6
	var completions []float64
	done := func(d time.Duration) { completions = append(completions, d.Seconds()) }
	rng := rand.New(rand.NewSource(seed))
	no := ctx.Grid.NumOutputSteps()

	// Phase B: a hot window that fits the cache comfortably, re-read
	// four times by each client. First passes miss and re-simulate;
	// later passes hit if the replacement policy keeps the window. Its
	// analyses are live from the start, so the controller keeps ticking
	// across the gap between the phases.
	hotStart := no - 200
	const hotWindow = 24
	rereads := make([]*Analysis, rereadClients)
	for i := range rereads {
		var steps []int
		for range 4 {
			steps = append(steps, Forward(hotStart, hotWindow)...)
		}
		rereads[i] = r.analysis(fmt.Sprintf("reread-%d", i), steps, time.Second, done)
	}
	startPhaseB := func() {
		for i, a := range rereads {
			r.eng.Schedule(time.Duration(i*5)*time.Second, a.Start)
		}
	}

	// Phase A: the contended scan mix. The last completion opens phase B.
	scans := make([]*Analysis, scanClients)
	scanLeft := scanClients
	for i := range scans {
		start := rng.Intn(no-400-48) + 1
		a := r.analysis(fmt.Sprintf("scan-%d", i), Forward(start, 48), 2*time.Second, func(d time.Duration) {
			done(d)
			if scanLeft--; scanLeft == 0 {
				r.eng.Schedule(10*time.Second, startPhaseB)
			}
		})
		scans[i] = a
		r.eng.Schedule(time.Duration(rng.Intn(60))*time.Second, a.Start)
	}

	var cell AutoscaleResult
	if tick > 0 {
		if err := r.steer(policies, tick, &cell.Log); err != nil {
			return AutoscaleResult{}, err
		}
	}
	if err := r.finish(); err != nil {
		return AutoscaleResult{}, err
	}
	st, err := r.v.Stats(ctx.Name)
	if err != nil {
		return AutoscaleResult{}, err
	}
	ss := r.v.SchedStats()
	cell.DemandWait = ss.DemandWait.Wait
	cell.Median = metrics.Summarize(completions).Median
	cell.Restarts = st.Restarts
	cell.Preempted, cell.Promoted = ss.Preempted, ss.Promoted
	cell.Decisions = len(cell.Log)
	for _, a := range append(rereads, scans...) {
		cell.Blocked += a.Waits
	}
	return cell, nil
}
