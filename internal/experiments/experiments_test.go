package experiments

import (
	"strings"
	"testing"
	"time"

	"simfs/internal/costmodel"
	"simfs/internal/model"
	"simfs/internal/sched"
	"simfs/internal/simulator"
	"simfs/internal/trace"
)

func smallCtx() *model.Context {
	c := &model.Context{
		Name:               "small",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 100},
		OutputBytes:        1,
		MaxCacheBytes:      20,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
	c.ApplyDefaults()
	return c
}

func TestReplayCountsWork(t *testing.T) {
	ctx := smallCtx()
	accesses := []trace.Access{{Step: 2}, {Step: 3}, {Step: 2}, {Step: 6}, {Step: 5}}
	res, err := Replay(ctx, "LRU", accesses)
	if err != nil {
		t.Fatal(err)
	}
	// Access 2 → miss → restart, produce steps 1,2 (cost 2); access 3 →
	// lazy extension of the running simulation (1 step, no new restart);
	// access 2 → hit; access 6 → redirect → new restart producing 5,6;
	// access 5 → hit (produced by the second simulation).
	if res.Misses != 3 || res.Hits != 2 || res.Restarts != 2 || res.ProducedSteps != 5 {
		t.Errorf("replay = %+v", res)
	}
}

func TestReplayRejectsBadInput(t *testing.T) {
	ctx := smallCtx()
	if _, err := Replay(ctx, "NOPE", nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Replay(ctx, "LRU", []trace.Access{{Step: 0}}); err == nil {
		t.Error("invalid step accepted")
	}
}

func TestReplayEvictsUnderPressure(t *testing.T) {
	ctx := smallCtx()
	ctx.MaxCacheBytes = 4 // one restart interval
	var accesses []trace.Access
	for s := 1; s <= 40; s += 4 {
		accesses = append(accesses, trace.Access{Step: s})
	}
	res, err := Replay(ctx, "LRU", accesses)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Error("expected evictions with a one-interval cache")
	}
}

func TestFig05Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size replay in -short mode")
	}
	cfg := DefaultFig05()
	cfg.Reps = 5
	steps, restarts, err := Fig05(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tab, pol, pat string) float64 {
		var s float64
		switch tab {
		case "steps":
			sum, ok := steps.Series(pol).At(pat)
			if !ok {
				t.Fatalf("missing %s/%s", pol, pat)
			}
			s = sum.Median
		case "restarts":
			sum, ok := restarts.Series(pol).At(pat)
			if !ok {
				t.Fatalf("missing %s/%s", pol, pat)
			}
			s = sum.Median
		}
		return s
	}
	// Paper shape 1: cost-based schemes (DCL in particular) minimize
	// re-simulated steps on the Random and ECMWF patterns vs plain LRU.
	for _, pat := range []string{"Random", "ECMWF"} {
		if dcl, lru := get("steps", "DCL", pat), get("steps", "LRU", pat); dcl > lru*1.05 {
			t.Errorf("%s: DCL steps %.0f should not exceed LRU %.0f", pat, dcl, lru)
		}
	}
	// Paper shape 2: LIRS performs worst on the backward pattern.
	lirs := get("steps", "LIRS", "Backward")
	for _, pol := range []string{"LRU", "DCL", "BCL", "ARC"} {
		if v := get("steps", pol, "Backward"); v > lirs*1.10 {
			t.Errorf("Backward: %s steps %.0f unexpectedly above LIRS %.0f", pol, v, lirs)
		}
	}
	// Sanity: every cell is positive and restarts ≤ steps.
	for _, pol := range cfg.Policies {
		for _, pat := range trace.Patterns() {
			st, rs := get("steps", pol, string(pat)), get("restarts", pol, string(pat))
			if st <= 0 || rs <= 0 || rs > st {
				t.Errorf("%s/%s: steps=%.0f restarts=%.0f", pol, pat, st, rs)
			}
		}
	}
}

func TestAnalysisDriverAllCached(t *testing.T) {
	ctx := smallCtx()
	ctx.NoPrefetch = true
	elapsed, err := runAnalysisPreloaded(t, ctx, Forward(1, 10), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != time.Second {
		t.Errorf("all-cached analysis took %v, want 10×100ms", elapsed)
	}
}

// runAnalysisPreloaded is a test helper: preloads all steps then runs.
func runAnalysisPreloaded(t *testing.T, ctx *model.Context, steps []int, tauCli time.Duration) (time.Duration, error) {
	t.Helper()
	ctx.MaxCacheBytes = 0
	r, err := newRun(ctx, "DCL", sched.Config{}, nil)
	if err != nil {
		return 0, err
	}
	all := make([]int, ctx.Grid.NumOutputSteps())
	for i := range all {
		all[i] = i + 1
	}
	if err := r.v.Preload(ctx.Name, all); err != nil {
		return 0, err
	}
	var elapsed time.Duration
	r.analysis("t", steps, tauCli, func(d time.Duration) { elapsed = d }).Start()
	err = r.finish()
	return elapsed, err
}

// An abort counts as finished: once the other analysis is done the heap
// drains, and finish names the aborted client rather than a count of
// analyses that never finished.
func TestRunAbortNamesClient(t *testing.T) {
	ctx := smallCtx()
	r, err := newRun(ctx, "DCL", sched.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.analysis("whole", Forward(1, 8), 100*time.Millisecond, nil).Start()
	// A step past the timeline: the Virtualizer refuses the open.
	r.analysis("past-end", []int{ctx.Grid.NumOutputSteps() + 1}, 100*time.Millisecond, nil).Start()
	if err := r.finish(); err == nil || !strings.Contains(err.Error(), "past-end") {
		t.Fatalf("finish = %v, want the abort of past-end", err)
	}
	if r.live != 0 {
		t.Fatalf("%d analyses still live after the run", r.live)
	}
}

func TestAnalysisDriverColdForwardNoPrefetch(t *testing.T) {
	ctx := smallCtx()
	ctx.NoPrefetch = true
	ctx.MaxCacheBytes = 0
	elapsed, err := runAnalysis(ctx, Forward(1, 8), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without prefetching, every restart interval (4 steps) pays the full
	// α: 2 intervals × (2s + 4·1s) = 12s; τcli=0 adds nothing. The
	// analysis of interval 1 overlaps nothing.
	// Access 1 waits α+τ, 2..4 arrive every τ; then 5 misses again.
	want := 2 * (2*time.Second + 4*time.Second)
	if elapsed != want {
		t.Errorf("cold forward = %v, want %v", elapsed, want)
	}
}

func TestPrefetchingBeatsNoPrefetch(t *testing.T) {
	base := func() *model.Context {
		c := smallCtx()
		c.MaxCacheBytes = 0
		c.SMax = 4
		return c
	}
	ctxNo := base()
	ctxNo.NoPrefetch = true
	slow, err := runAnalysis(ctxNo, Forward(1, 60), 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctxYes := base()
	fast, err := runAnalysis(ctxYes, Forward(1, 60), 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Errorf("prefetching (%v) should beat no-prefetching (%v)", fast, slow)
	}
}

func TestFig16Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("DES sweep in -short mode")
	}
	tab, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	at := func(series, x string) float64 {
		s, ok := tab.Series(series).At(x)
		if !ok {
			t.Fatalf("missing %s@%s", series, x)
		}
		return s.Median
	}
	single := at("Full Forward Resimulation", "8")
	f2, f8, f16 := at("Forward", "2"), at("Forward", "8"), at("Forward", "16")
	// Strong scaling: more parallel re-simulations help up to smax=8.
	if !(f8 < f2) {
		t.Errorf("forward should scale: smax=8 (%.0fs) ≥ smax=2 (%.0fs)", f8, f2)
	}
	// Paper: ≈2.4× over the full re-simulation at smax=8.
	if speedup := single / f8; speedup < 1.5 {
		t.Errorf("forward speedup at smax=8 = %.2fx, want ≥1.5x", speedup)
	}
	// smax=16 brings no real further benefit (prefetching unused data).
	if f16 < f8*0.80 {
		t.Errorf("smax=16 (%.0fs) should not improve much over smax=8 (%.0fs)", f16, f8)
	}
	// Backward is slower than forward at the same smax (first-miss
	// penalty of a full restart interval).
	b8 := at("Backward", "8")
	if b8 < f8 {
		t.Errorf("backward (%.0fs) should not beat forward (%.0fs)", b8, f8)
	}
}

func TestFig17Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("DES sweep in -short mode")
	}
	tabs, err := Latency("test", simulator.CosmoScaling, []int{72},
		[]time.Duration{13 * time.Second, 300 * time.Second}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	for _, x := range []string{"13", "300"} {
		simfs, _ := tab.Series("SimFS").At(x)
		single, _ := tab.Series("Tsingle").At(x)
		lower, _ := tab.Series("Tlower").At(x)
		// The paper bounds the overhead at ≈2× Tsingle and SimFS can
		// never beat the lower bound.
		if simfs.Median > 2.5*single.Median {
			t.Errorf("α=%s: SimFS %.0fs exceeds 2.5×Tsingle %.0fs", x, simfs.Median, single.Median)
		}
		if simfs.Median < lower.Median*0.99 {
			t.Errorf("α=%s: SimFS %.0fs beats the lower bound %.0fs", x, simfs.Median, lower.Median)
		}
	}
}

func TestFig01Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cost replay in -short mode")
	}
	tab, err := Fig01(DefaultCostWorkload(), costmodel.Azure)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series, x string) float64 {
		s, ok := tab.Series(series).At(x)
		if !ok {
			t.Fatalf("missing %s@%s", series, x)
		}
		return s.Median
	}
	// on-disk grows with ∆t; in-situ is flat; SimFS sits below on-disk
	// for long periods.
	if !(at("on-disk", "5y") > at("on-disk", "6m")) {
		t.Error("on-disk must grow with the availability period")
	}
	if at("in-situ", "6m") != at("in-situ", "5y") {
		t.Error("in-situ must not depend on the availability period")
	}
	if !(at("SimFS", "5y") < at("on-disk", "5y")) {
		t.Error("SimFS must beat on-disk at 5y (the headline claim)")
	}
}

func TestFig14Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("cost replay in -short mode")
	}
	tab, err := Fig14(DefaultCostWorkload(), costmodel.Azure)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series, x string) float64 {
		s, ok := tab.Series(series).At(x)
		if !ok {
			t.Fatalf("missing %s@%s", series, x)
		}
		return s.Median
	}
	// Paper: SimFS cannot beat in-situ below ≈20 analyses, wins at scale.
	if !(at("in-situ", "5") < at("SimFS(25%) Δr=8h", "5")) {
		t.Error("at 5 analyses in-situ should win")
	}
	if !(at("SimFS(25%) Δr=8h", "125") < at("in-situ", "125")) {
		t.Error("at 125 analyses SimFS should win")
	}
}

func TestFig15aRatioStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("cost replay in -short mode")
	}
	h, err := Fig15a(DefaultCostWorkload())
	if err != nil {
		t.Fatal(err)
	}
	// Paper structure: SimFS is the cheapest option (ratio > 1) in a
	// band between the "in-situ is cheaper" corner (cheap compute, costly
	// storage) and the "on-disk is cheaper" corner (cheap storage).
	best := 0.0
	for _, cs := range []string{"0.05", "0.10", "0.15", "0.20", "0.25", "0.30"} {
		for _, cc := range []string{"0.5", "1.0", "1.5", "2.0", "2.5", "3.0"} {
			if v, ok := h.At(cs, cc); ok && v > best {
				best = v
			}
		}
	}
	if best <= 1 {
		t.Errorf("SimFS never cheapest anywhere on the grid (max ratio %.2f)", best)
	}
	// In the cheap-compute, expensive-storage corner in-situ wins: the
	// ratio must dip below its peak there.
	corner, ok := h.At("0.30", "0.5")
	if !ok {
		t.Fatal("missing corner cell")
	}
	if corner >= best {
		t.Errorf("corner ratio %.2f should be below the peak %.2f", corner, best)
	}
}
