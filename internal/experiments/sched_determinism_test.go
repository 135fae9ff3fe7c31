package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"simfs/internal/simulator"
	"simfs/internal/trace"
)

// TestSchedulerPreservesSeedTables is the determinism gate of the
// scheduler extraction: the golden file was generated by the pre-scheduler
// code (inline launch/pending/drain logic in core), and this test
// regenerates the exact same report with every launch now flowing through
// internal/sched. Any byte of difference means the default scheduling
// policy is not the paper-exact semantics the experiments were validated
// against.
func TestSchedulerPreservesSeedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates several DES experiments; skipped with -short")
	}
	want, err := os.ReadFile("testdata/sched_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer

	ctx := simulator.CosmoScaling()
	ctx.MaxCacheBytes = 128 * ctx.OutputBytes
	res, err := MultiAnalysis(ctx, MultiAnalysisConfig{
		Clients: 6, Steps: 48, TauCli: 100 * time.Millisecond, Seed: 1, Backward: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== MultiAnalysis clients=6 steps=48 seed=1 backward=0.25")
	for i, d := range res.Completion {
		fmt.Fprintf(&buf, "completion[%d]=%v\n", i, d)
	}
	fmt.Fprintf(&buf, "stats=%+v\n", res.Stats)

	steps, restarts, err := Fig05DV(2, 5, 1, []string{"DCL", "LRU"}, []trace.Pattern{trace.Forward, trace.ECMWF})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== Fig05DV reps=2 analyses=5 seed=1")
	if err := steps.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restarts.Render(&buf); err != nil {
		t.Fatal(err)
	}

	tab, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== Fig16")
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}

	tab2, err := AblationDoubling()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== AblationDoubling")
	if err := tab2.Render(&buf); err != nil {
		t.Fatal(err)
	}

	ctx2 := simulator.CosmoScaling()
	ctx2.MaxCacheBytes = 128 * ctx2.OutputBytes
	tab3, err := MultiAnalysisSweep(ctx2, []int{1, 2, 4}, 48, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf, "== MultiAnalysisSweep")
	if err := tab3.Render(&buf); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("experiment tables diverged from the pre-scheduler goldens\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestAblationSchedulerEffects checks the scheduler ablation runs and that
// its knobs move the measured quantities in the expected direction:
// coalescing merges queued jobs (and never increases restarts), priority
// queueing eliminates dropped prefetches.
func TestAblationSchedulerEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("10-client DES sweeps; skipped with -short")
	}
	tab, err := AblationScheduler(1)
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
	if at("coalesced", "baseline") != 0 || at("coalesced", "+priorities") != 0 {
		t.Error("coalesce counter must be zero with coalescing off")
	}
	if at("coalesced", "+coalesce") <= 0 || at("coalesced", "+both") <= 0 {
		t.Error("coalescing enabled but nothing merged on the contended workload")
	}
	if at("restarts", "+coalesce") > at("restarts", "baseline") {
		t.Errorf("coalescing increased restarts: %v > %v",
			at("restarts", "+coalesce"), at("restarts", "baseline"))
	}
	if at("dropped prefetch", "+priorities") != 0 || at("dropped prefetch", "+both") != 0 {
		t.Error("priority queueing should queue prefetches instead of dropping them")
	}
	if at("dropped prefetch", "baseline") <= 0 {
		t.Error("baseline should drop prefetches at capacity on this workload")
	}
	// The paper's end metric (Sec. IV-C/VI): queueing prefetch work
	// instead of dropping it must not slow the analyses down. It did —
	// 1447 s and 583.6 s against the baseline's 524.1 s — while a demand
	// open landing on a queued prefetch job left it draining at agent
	// priority with a client blocked on it; the demand-join half of
	// Priorities (sched.PromoteDemand) is what this pins.
	base := at("median completion (s)", "baseline")
	for _, mode := range []string{"+priorities", "+both"} {
		if m := at("median completion (s)", mode); m > base {
			t.Errorf("%s: median completion %.1fs exceeds the paper-exact baseline's %.1fs (priority inversion)", mode, m, base)
		}
	}
}

// TestAblationSchedulerParallelDeterminism: the ablation's cells carry
// their own scheduler configs; tables must not depend on the worker count.
func TestAblationSchedulerParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation twice; skipped with -short")
	}
	render := func(workers int) string {
		SetWorkers(workers)
		defer SetWorkers(0)
		tab, err := AblationScheduler(1)
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
		t.Errorf("ablation tables depend on worker count:\n-- j1 --\n%s\n-- j4 --\n%s", seq, par)
	}
}
