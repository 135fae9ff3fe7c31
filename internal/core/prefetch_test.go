package core

import (
	"slices"
	"testing"
	"time"

	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// prefetchCtx returns a context with prefetching enabled.
func prefetchCtx() *model.Context {
	c := &model.Context{
		Name:               "pf",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 200},
		OutputBytes:        1,
		MaxCacheBytes:      0, // unbounded
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
	c.ApplyDefaults()
	return c
}

// driveForward walks a client forward through steps [1..n], waiting for
// misses, with the given per-step processing time. Returns completion
// time.
func driveForward(h *harness, client string, n int, tauCli time.Duration) time.Duration {
	ctx, _ := h.v.Context("pf")
	var done time.Duration
	var step func(i int)
	step = func(i int) {
		if i > n {
			done = h.eng.Now()
			return
		}
		file := ctx.Filename(i)
		proceed := func() {
			h.eng.Schedule(tauCli, func() {
				h.v.Release(client, "pf", file)
				step(i + 1)
			})
		}
		res, err := openAwait(h.v, client, "pf", file, func(notify.Event) { proceed() })
		if err != nil {
			panic(err)
		}
		if !res.Awaited {
			proceed()
		}
	}
	h.eng.Schedule(0, func() { step(1) })
	h.eng.Run(0)
	return done
}

func TestPrefetchLaunchesAheadOfForwardScan(t *testing.T) {
	h := newHarness(t, prefetchCtx())
	driveForward(h, "a1", 40, 100*time.Millisecond)
	st, _ := h.v.Stats("pf")
	if st.PrefetchLaunches == 0 {
		t.Fatal("forward scan triggered no prefetch launches")
	}
	if st.DemandRestarts > 2 {
		t.Errorf("demand restarts = %d; prefetching should absorb almost all misses", st.DemandRestarts)
	}
}

func TestPrefetchKilledOnDirectionChange(t *testing.T) {
	h := newHarness(t, prefetchCtx())
	ctx, _ := h.v.Context("pf")
	client := "a1"
	// Forward scan just long enough to spawn prefetches, then jump while
	// the prefetched simulations are still running...
	var phase2 func()
	var step func(i int)
	step = func(i int) {
		if i > 6 {
			phase2()
			return
		}
		file := ctx.Filename(i)
		next := func() {
			h.eng.Schedule(100*time.Millisecond, func() {
				h.v.Release(client, "pf", file)
				step(i + 1)
			})
		}
		if res, _ := openAwait(h.v, client, "pf", file, func(notify.Event) { next() }); !res.Awaited {
			next()
		}
	}
	// ...then jump far away backward, twice, to flip the pattern.
	phase2 = func() {
		for _, s := range []int{150, 149, 148} {
			file := ctx.Filename(s)
			if res, _ := h.v.Open(client, "pf", file); res.Available {
				h.v.Release(client, "pf", file)
			}
		}
	}
	h.eng.Schedule(0, func() { step(1) })
	h.eng.Run(0)
	st, _ := h.v.Stats("pf")
	if st.PrefetchLaunches == 0 {
		t.Fatal("no prefetches to kill")
	}
	if st.Kills == 0 {
		t.Error("direction change should kill outstanding prefetched simulations")
	}
}

func TestPollutionResetsAgents(t *testing.T) {
	// Tiny cache: 4 steps. Prefetched files get evicted before the
	// analysis reaches them → pollution signal → agents reset.
	ctx := prefetchCtx()
	ctx.MaxCacheBytes = 4
	h := newHarness(t, ctx)
	driveForward(h, "a1", 60, 50*time.Millisecond)
	st, _ := h.v.Stats("pf")
	if st.PollutionResets == 0 {
		t.Skip("no pollution observed with this geometry (eviction kept pace)")
	}
}

func TestPrefetchSharedAcrossClients(t *testing.T) {
	// A second client arriving later rides the first client's cached and
	// promised files instead of restarting everything.
	h := newHarness(t, prefetchCtx())
	tA := driveForward(h, "a1", 40, 100*time.Millisecond)
	stBefore, _ := h.v.Stats("pf")
	tB := driveForward(h, "a2", 40, 100*time.Millisecond)
	stAfter, _ := h.v.Stats("pf")
	if tB-tA > tA/2 {
		t.Errorf("second client took %v, first %v: should be mostly cache hits", tB-tA, tA)
	}
	// The second client may speculatively prefetch beyond the shared
	// coverage (the paper accepts that prefetched steps are not guaranteed
	// to be accessed), but it must never need a demand re-simulation.
	if stAfter.DemandRestarts != stBefore.DemandRestarts {
		t.Errorf("second client caused %d extra demand restarts",
			stAfter.DemandRestarts-stBefore.DemandRestarts)
	}
}

func TestDroppedPrefetchAtSMax(t *testing.T) {
	ctx := prefetchCtx()
	ctx.SMax = 1 // only the demand simulation fits
	h := newHarness(t, ctx)
	driveForward(h, "a1", 30, 50*time.Millisecond)
	st, _ := h.v.Stats("pf")
	if st.DroppedPrefetch == 0 {
		t.Error("smax=1 should force dropped prefetches")
	}
}

func TestAlphaEMATracksObservedLatency(t *testing.T) {
	h := newHarness(t, prefetchCtx())
	ctx, _ := h.v.Context("pf")
	h.v.Open("a1", "pf", ctx.Filename(1))
	h.eng.Run(0)
	// After one simulation, the estimate should be the observed α (2s),
	// visible through EstWait of a fresh miss.
	h.v.Open("a1", "pf", ctx.Filename(100))
	w, err := h.v.EstWait("pf", ctx.Filename(100))
	if err != nil {
		t.Fatal(err)
	}
	// Step 100 is 4th in its interval (97..100): α + 4τ = 6s.
	if w != 6*time.Second {
		t.Errorf("EstWait = %v, want 6s from the observed EMA", w)
	}
}

// TestAgentDropTailBooksLikeSubmit: once the scheduler refuses one range
// of an agent's decision, the core books the rest without asking it
// again, and they must count exactly as their own Submits would have.
// The agent plans four ranges ahead of a forward scan, [5,8] [9,12]
// [13,16] [17,20], while the scheduler runs one simulation of the
// context at a time and already runs the demand one for step 1. So
// [5,8] is refused; behind it [9,12] is quarantined (dropped by the
// core, never submitted), [13,16] is promised by another client's queued
// demand (skipped, counted nowhere) and [17,20] is refused like [5,8].
// Under Priorities the scheduler queues instead of refusing: every range
// goes to it, and nothing is short-cut.
func TestAgentDropTailBooksLikeSubmit(t *testing.T) {
	for _, tc := range []struct {
		priorities                  bool
		droppedPrefetch, schedDrops int64
		queued                      [][2]int
	}{
		{false, 3, 2, [][2]int{{13, 16}}},
		{true, 1, 0, [][2]int{{13, 16}, {5, 8}, {17, 20}}},
	} {
		ctx := prefetchCtx() // SMax 4, no ramp-up: the agent plans 4 ranges at once
		eng := des.NewEngine()
		l := &simulator.DESLauncher{Engine: eng}
		v := NewScheduled(eng, l, sched.Config{Priorities: tc.priorities})
		l.Events = v
		if err := v.AddContext(ctx, "DCL", nil); err != nil {
			t.Fatal(err)
		}
		v.sched.Register("pf", 1)
		cs, _ := v.shardOf("pf")
		cs.failures[[2]int{9, 12}] = &failureRec{attempts: 1, quarantined: true, until: time.Hour}
		open := func(client string, step int) {
			t.Helper()
			if _, err := v.Open(client, "pf", ctx.Filename(step)); err != nil {
				t.Fatal(err)
			}
		}
		open("a1", 1) // demand [1,4] admitted: the context is full
		open("b", 13) // demand [13,16] queued: promised
		eng.RunUntil(100 * time.Millisecond)
		open("a1", 2)
		eng.RunUntil(200 * time.Millisecond)
		st0, _ := v.Stats("pf")
		sd0, load0 := v.SchedStats().Dropped, v.sched.ClientLoads()["a1"]
		open("a1", 3) // the pattern is confirmed: the agent plans its batch

		st, _ := v.Stats("pf")
		if got := st.DroppedPrefetch - st0.DroppedPrefetch; got != tc.droppedPrefetch {
			t.Errorf("priorities=%v: DroppedPrefetch +%d, want +%d", tc.priorities, got, tc.droppedPrefetch)
		}
		if got := v.SchedStats().Dropped - sd0; got != uint64(tc.schedDrops) {
			t.Errorf("priorities=%v: sched Dropped +%d, want +%d", tc.priorities, got, tc.schedDrops)
		}
		// [5,8] and [17,20] reach the scheduler either way: 8 steps of load.
		if got := v.sched.ClientLoads()["a1"] - load0; got != 8 {
			t.Errorf("priorities=%v: a1's load +%d, want +8", tc.priorities, got)
		}
		if got := v.sched.QueuedRanges("pf"); !slices.Equal(got, tc.queued) {
			t.Errorf("priorities=%v: queued %v, want %v", tc.priorities, got, tc.queued)
		}
	}
}
