package experiments

import (
	"fmt"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// AblationPreempt quantifies demand-over-prefetch preemption and
// per-client DRR fairness on the contended 10-client multi-analysis
// workload under a global node budget: with priorities alone a demand
// miss merely outranks queued speculative work — it still waits for the
// running agent prefetches to finish. Preemption lets it kill one (the
// victim's interval is requeued), so the measured quantity is the
// cumulative demand queue-wait; dropped prefetches must stay zero (the
// victim is deferred, not discarded) in every mode. The baseline row is
// coalesce+priorities under the same budget, so the differences are
// exactly what preemption (and the DRR quantum riding the last row)
// buys.
func AblationPreempt(seed int64) (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation — demand preemption × fairness (node budget 400)", "mode", "value")
	base := sched.Config{Coalesce: true, Priorities: true, TotalNodes: 400}
	modes := []struct {
		name string
		cfg  sched.Config
	}{
		{"priorities", base},
		{"+preempt-youngest", withPreempt(base, sched.PreemptYoungest, 0)},
		{"+preempt+drr", withPreempt(base, sched.PreemptYoungest, 24)},
	}
	results, err := RunCells(0, len(modes), func(i int) (MultiAnalysisResult, error) {
		ctx := simulator.CosmoScaling()
		ctx.MaxCacheBytes = 128 * ctx.OutputBytes
		// Contention lives on the node budget here, not on smax: each
		// job runs at P=100, so TotalNodes=400 admits four concurrent
		// re-simulations across the ten clients.
		ctx.SMax = 10000
		// τcli = 2 s keeps the agent prefetches speculative long enough
		// to be preemptable: with a faster analysis the client catches
		// up and waits on its own prefetch, which the no-waiters rule
		// then protects.
		res, err := MultiAnalysis(ctx, MultiAnalysisConfig{
			Clients: 10, Steps: 48, TauCli: 2 * time.Second,
			Seed: seed, Backward: 0.25, Sched: modes[i].cfg,
		})
		if err != nil {
			return MultiAnalysisResult{}, fmt.Errorf("preempt ablation %s: %w", modes[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		r := results[i]
		var xs []float64
		for _, d := range r.Completion {
			xs = append(xs, d.Seconds())
		}
		tab.Series("median completion (s)").Add(mode.name, metrics.Summarize(xs).Median)
		tab.Series("demand wait (s)").Add(mode.name, r.Sched.DemandWait.Wait.Seconds())
		tab.Series("preempted").Add(mode.name, float64(r.Sched.Preempted))
		tab.Series("restarts").Add(mode.name, float64(r.Stats.Restarts))
		tab.Series("dropped prefetch").Add(mode.name, float64(r.Stats.DroppedPrefetch))
		tab.Series("quota deferred").Add(mode.name, float64(r.Sched.QuotaDeferred))
	}
	return tab, nil
}

func withPreempt(cfg sched.Config, p sched.PreemptPolicy, quantum int) sched.Config {
	cfg.Preempt = p
	cfg.DRRQuantum = quantum
	return cfg
}
