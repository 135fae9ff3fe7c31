package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// TestAblationPreemptEffects pins the PR's acceptance criterion on the
// contended 10-client workload under a node budget: with preemption on,
// cumulative demand queue-wait drops versus priorities-only, no
// prefetch is ever dropped (the victim's interval is requeued, not
// discarded), and the preemption counter proves the mechanism actually
// fired rather than the workload having gone uncontended.
func TestAblationPreemptEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("10-client DES sweeps; skipped with -short")
	}
	tab, err := AblationPreempt(1)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series, mode string) float64 {
		s, ok := tab.Series(series).At(mode)
		if !ok {
			t.Fatalf("missing cell %s/%s", series, mode)
		}
		return s.Median
	}
	baseWait := at("demand wait (s)", "priorities")
	if baseWait <= 0 {
		t.Fatal("the priorities-only baseline shows no demand queue-wait: the workload is not contended")
	}
	if at("preempted", "priorities") != 0 {
		t.Error("preemption fired with the policy off")
	}
	if at("preempted", "+preempt-youngest") <= 0 {
		t.Error("+preempt-youngest: preemption never fired on the contended workload")
	}
	if w := at("demand wait (s)", "+preempt-youngest"); w >= baseWait {
		t.Errorf("+preempt-youngest: demand wait %.1fs did not drop below the priorities-only %.1fs", w, baseWait)
	}
	// Demand is never dropped by design, and with priorities on neither
	// is prefetch — preemption must keep it that way in every mode.
	for _, mode := range []string{"priorities", "+preempt-youngest", "+preempt+drr"} {
		if d := at("dropped prefetch", mode); d != 0 {
			t.Errorf("%s: %v dropped launches, want 0", mode, d)
		}
	}
}

// TestAblationPreemptParallelDeterminism: preemption decisions ride the
// DES event thread, so the ablation's tables must not depend on the
// experiment worker count.
func TestAblationPreemptParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation twice; skipped with -short")
	}
	render := func(workers int) string {
		SetWorkers(workers)
		defer SetWorkers(0)
		tab, err := AblationPreempt(1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Errorf("preempt ablation tables depend on worker count:\n-- j1 --\n%s\n-- j4 --\n%s", seq, par)
	}
}

// TestAblationPreemptDRRUnderSkew is the workload the symmetric
// `-fig preempt` cannot show: one greedy client running 8 analyses at
// τcli 0.5 s beside 6 ordinary clients running one each at τcli 2 s,
// on the node-budget configuration of AblationPreempt. Per-client DRR
// credit (DRRQuantum 24) must lower the slowest ordinary analysis's
// completion time against the quantum off in at least 17 of 20 seeds,
// and its median by at least 15 %.
func TestAblationPreemptDRRUnderSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("40 14-analysis DES runs; skipped with -short")
	}
	const seeds = 20
	// slowest runs one seed and returns the slowest ordinary analysis's
	// completion time and the greedy client's median, in seconds.
	slowest := func(seed int64, quantum int) (ordinary, greedy float64) {
		ctx := simulator.CosmoScaling()
		ctx.MaxCacheBytes = 128 * ctx.OutputBytes
		ctx.SMax = 10000
		cfg := sched.Config{Coalesce: true, Priorities: true, TotalNodes: 400,
			Preempt: sched.PreemptYoungest, DRRQuantum: quantum}
		r, err := newRun(ctx, "DCL", cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		const m = 48
		no := ctx.Grid.NumOutputSteps()
		var greedyDone []float64
		add := func(client string, tauCli time.Duration, done func(time.Duration)) {
			a := r.analysis(client, Forward(rng.Intn(no-m)+1, m), tauCli, done)
			r.eng.Schedule(time.Duration(rng.Intn(60))*time.Second, a.Start)
		}
		for range 8 {
			add("greedy", 500*time.Millisecond, func(d time.Duration) { greedyDone = append(greedyDone, d.Seconds()) })
		}
		for i := range 6 {
			add(fmt.Sprintf("ordinary-%d", i), 2*time.Second, func(d time.Duration) { ordinary = max(ordinary, d.Seconds()) })
		}
		if err := r.finish(); err != nil {
			t.Fatalf("seed %d quantum %d: %v", seed, quantum, err)
		}
		return ordinary, metrics.Summarize(greedyDone).Median
	}
	var off, on, greedyOff, greedyOn []float64
	wins := 0
	for seed := int64(1); seed <= seeds; seed++ {
		o0, g0 := slowest(seed, 0)
		o1, g1 := slowest(seed, 24)
		off, on = append(off, o0), append(on, o1)
		greedyOff, greedyOn = append(greedyOff, g0), append(greedyOn, g1)
		if o1 < o0 {
			wins++
		}
	}
	mOff, mOn := metrics.Summarize(off).Median, metrics.Summarize(on).Median
	t.Logf("slowest ordinary analysis: median %.1f s off, %.1f s at quantum 24; DRR lower in %d/%d seeds; greedy median %.1f → %.1f s",
		mOff, mOn, wins, seeds, metrics.Summarize(greedyOff).Median, metrics.Summarize(greedyOn).Median)
	if wins < 17 {
		t.Errorf("DRR lowered the slowest ordinary completion in %d/%d seeds, want ≥ 17", wins, seeds)
	}
	if mOn > 0.85*mOff {
		t.Errorf("DRR median %.1f s is not 15 %% below the quantum-off %.1f s", mOn, mOff)
	}
}
