package experiments

import (
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/model"
	"simfs/internal/sched"
)

// The didactic examples of the paper's Figures 7-11 all use the same
// parameters: Δr = 4 output steps, αsim = 2 time units, τsim = 1 time
// unit, τcli = 1/2 time unit, stride k = 1. We map one time unit to one
// second.
func didacticCtx(noPrefetch bool, smax int) *model.Context {
	c := &model.Context{
		Name:               "paper",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1024},
		OutputBytes:        1,
		MaxCacheBytes:      0,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               smax,
		NoPrefetch:         noPrefetch,
	}
	c.ApplyDefaults()
	return c
}

// runDidactic runs a forward analysis over the didactic configuration and
// returns (completion time, accumulated wait time, context stats).
func runDidactic(t *testing.T, ctx *model.Context, steps []int) (time.Duration, time.Duration, core.CtxStats) {
	t.Helper()
	r, err := newRun(ctx, "DCL", sched.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	a := r.analysis("didactic", steps, 500*time.Millisecond, func(d time.Duration) { elapsed = d })
	a.Start()
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	st, err := r.v.Stats(ctx.Name)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, a.Waits, st
}

// TestFig07NoPrefetchTimeline reproduces Figure 7: without prefetching,
// every restart interval pays the full restart latency. Accesses 1..12
// need three re-simulations; the exact completion time is deterministic.
//
// Timeline: SIM#1 starts at t=0; step 1 at α+τ=3, steps 2..4 at 4,5,6.
// The analysis consumes each 0.5 after availability, so it misses step 5
// at t=6.5: SIM#2 runs 6.5→9.5 (step 5) … step 8 at 12.5; miss of step 9
// at t=13: SIM#3 delivers step 9 at 16 … step 12 at 19, consumed at 19.5.
func TestFig07NoPrefetchTimeline(t *testing.T) {
	ctx := didacticCtx(true, 4)
	elapsed, waits, st := runDidactic(t, ctx, Forward(1, 12))
	if want := 19500 * time.Millisecond; elapsed != want {
		t.Errorf("completion = %v, want %v", elapsed, want)
	}
	if st.Restarts != 3 {
		t.Errorf("restarts = %d, want 3 (one per interval)", st.Restarts)
	}
	// Every one of the three restart latencies is exposed to the analysis.
	if waits < 3*ctx.Alpha {
		t.Errorf("accumulated waits = %v, want ≥ 3·α", waits)
	}
}

// TestFig08MaskingRestartLatency reproduces Figure 8's effect: with
// prefetching (ramp-up keeps s=1 at the first prefetching step, as in the
// figure), the restart latencies of later simulations overlap the
// analysis, so the total time and the exposed waits drop.
func TestFig08MaskingRestartLatency(t *testing.T) {
	ctxNo := didacticCtx(true, 4)
	plain, plainWaits, _ := runDidactic(t, ctxNo, Forward(1, 12))

	ctxPf := didacticCtx(false, 4)
	ctxPf.RampUp = true
	masked, maskedWaits, _ := runDidactic(t, ctxPf, Forward(1, 12))

	if masked >= plain {
		t.Errorf("masking (%v) should beat no-prefetching (%v)", masked, plain)
	}
	if maskedWaits >= plainWaits {
		t.Errorf("masked waits (%v) should be below exposed waits (%v)", maskedWaits, plainWaits)
	}
}

// TestFig09BandwidthMatching reproduces Figure 9's effect: with enough
// parallel simulations (sopt = ⌈k·τsim/τcli⌉ = 2), the analysis
// eventually runs at its own speed. A longer scan amortizes the warm-up;
// the steady-state rate must approach τcli = 0.5 s/step rather than the
// single-simulation τsim = 1 s/step.
func TestFig09BandwidthMatching(t *testing.T) {
	ctx := didacticCtx(false, 8)
	const m = 200
	elapsed, _, st := runDidactic(t, ctx, Forward(1, m))
	perStep := elapsed / m
	if perStep > 800*time.Millisecond {
		t.Errorf("steady-state %v/step: bandwidth matching failed (τcli=0.5s, τsim=1s)", perStep)
	}
	if st.PrefetchLaunches < 2 {
		t.Errorf("prefetch launches = %d, want ≥2 parallel re-simulations", st.PrefetchLaunches)
	}
}

// TestFig10BackwardPrefetching reproduces Figure 10's effect: a backward
// analysis profits from parallel re-simulations stacked below its
// frontier (s = 3 for the example parameters).
func TestFig10BackwardPrefetching(t *testing.T) {
	ctxNo := didacticCtx(true, 8)
	plain, _, _ := runDidactic(t, ctxNo, BackwardSeq(200, 120))

	ctx := didacticCtx(false, 8)
	fast, _, st := runDidactic(t, ctx, BackwardSeq(200, 120))
	if fast >= plain {
		t.Errorf("backward prefetching (%v) should beat no-prefetching (%v)", fast, plain)
	}
	if st.PrefetchLaunches == 0 {
		t.Error("no backward prefetch launches")
	}
}

// TestFig11HighRestartLatency reproduces Figure 11's warm-up analysis:
// with a restart latency much larger than the production time of the
// accessed steps, the analysis time converges to the prefetching warm-up
// (≈ 2α) and stays within the paper's ≈2× bound over Tsingle.
func TestFig11HighRestartLatency(t *testing.T) {
	ctx := didacticCtx(false, 8)
	ctx.Alpha = 60 * time.Second // α ≫ m·τsim
	const m = 24
	elapsed, _, _ := runDidactic(t, ctx, Forward(1, m))
	tsingle := ctx.Alpha + time.Duration(m)*ctx.Tau
	if elapsed < ctx.Alpha {
		t.Errorf("completion %v cannot beat one restart latency", elapsed)
	}
	if elapsed > 2*tsingle+10*time.Second {
		t.Errorf("completion %v exceeds the ≈2×Tsingle bound (%v)", elapsed, 2*tsingle)
	}
}
