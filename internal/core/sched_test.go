package core

import (
	"testing"
	"time"

	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// schedHarness wires a Virtualizer with an explicit scheduler policy.
func schedHarness(t *testing.T, cfg sched.Config, ctxs ...*model.Context) *harness {
	t.Helper()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := NewScheduled(eng, l, cfg)
	l.Events = v
	for _, c := range ctxs {
		if err := v.AddContext(c, "DCL", nil); err != nil {
			t.Fatalf("AddContext(%s): %v", c.Name, err)
		}
	}
	return &harness{eng: eng, l: l, v: v}
}

// TestNodeBudgetSerializesSimulations replaces the old launcher-level
// batch.Pool test: with a one-node budget, two demand re-simulations of
// disjoint intervals must run one after the other in virtual time.
func TestNodeBudgetSerializesSimulations(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{TotalNodes: 1}, ctx)
	done := 0
	wait := func(step int) {
		if err := h.v.WaitFile("a1", "c", ctx.Filename(step), func(st notify.Event) {
			if st.Err != "" {
				t.Errorf("step %d failed: %s", step, st.Err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Two misses in different restart intervals: [1,4] and [9,12].
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(9)); err != nil {
		t.Fatal(err)
	}
	wait(1)
	wait(9)
	h.eng.Run(0)
	if done != 2 {
		t.Fatalf("done = %d, want both productions", done)
	}
	// Serialized: 2·(α 2s + 4·τ 1s) = 12s. Concurrent would be 6s.
	if got := h.eng.Now(); got != 12*time.Second {
		t.Errorf("end time = %v, want 12s (serialized on the node budget)", got)
	}
	st := h.v.SchedStats()
	if st.DemandWait.Jobs != 1 || st.DemandWait.Wait != 6*time.Second {
		t.Errorf("demand wait = %+v, want 1 job waiting 6s for nodes", st.DemandWait)
	}
}

// TestNodeBudgetClampsWideJobs: a request wider than the whole budget is
// clamped to it instead of being rejected (the old pool failed such jobs).
func TestNodeBudgetClampsWideJobs(t *testing.T) {
	ctx := testContext("c")
	ctx.DefaultParallelism = 8
	ctx.MaxParallelism = 8
	h := schedHarness(t, sched.Config{TotalNodes: 2}, ctx)
	ok := false
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.v.WaitFile("a1", "c", ctx.Filename(1), func(st notify.Event) {
		ok = st.Err == ""
	}); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if !ok {
		t.Fatal("clamped job did not complete")
	}
}

// TestCoalescingMergesQueuedDemand: with one slot busy, two demand misses
// in adjacent restart intervals coalesce into one queued job — one
// restart serves both once capacity frees up.
func TestCoalescingMergesQueuedDemand(t *testing.T) {
	run := func(coalesce bool) (restarts int64, depthSeen int) {
		ctx := testContext("c")
		ctx.SMax = 1
		h := schedHarness(t, sched.Config{Coalesce: coalesce}, ctx)
		// Occupy the only slot.
		if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil {
			t.Fatal(err)
		}
		// Queue two mergeable demand launches: intervals [1,4] and [5,8].
		if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.v.Open("a1", "c", ctx.Filename(5)); err != nil {
			t.Fatal(err)
		}
		depthSeen = h.v.Scheduler().QueueDepth()
		h.eng.Run(0)
		st, _ := h.v.Stats("c")
		return st.Restarts, depthSeen
	}
	r0, d0 := run(false)
	r1, d1 := run(true)
	if d0 != 2 || r0 != 3 {
		t.Errorf("without coalescing: depth=%d restarts=%d, want 2 queued jobs / 3 restarts", d0, r0)
	}
	if d1 != 1 || r1 != 2 {
		t.Errorf("with coalescing: depth=%d restarts=%d, want 1 merged job / 2 restarts", d1, r1)
	}
}

// TestPriorityModeQueuesPrefetch: with Priorities on, a guided prefetch
// at capacity queues (legacy drops it) and launches after the demand work.
func TestPriorityModeQueuesPrefetch(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil { // fills the slot
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	st, _ := h.v.Stats("c")
	if st.DroppedPrefetch != 0 {
		t.Errorf("prefetch dropped despite priority queueing: %+v", st)
	}
	if d := h.v.Scheduler().QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want the queued prefetch", d)
	}
	// A demand miss queued afterwards must still pop first.
	if _, err := h.v.Open("a1", "c", ctx.Filename(20)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	st, _ = h.v.Stats("c")
	if st.Restarts != 3 {
		t.Errorf("restarts = %d, want 3 (demand + prefetch both served)", st.Restarts)
	}
	ss := h.v.SchedStats()
	if ss.GuidedWait.Jobs != 1 {
		t.Errorf("guided wait jobs = %d, want 1", ss.GuidedWait.Jobs)
	}
	if ss.DemandWait.Jobs != 1 || ss.DemandWait.Wait > ss.GuidedWait.Wait {
		t.Errorf("demand should wait no longer than the earlier-queued prefetch: %+v vs %+v",
			ss.DemandWait, ss.GuidedWait)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedPrefetchRevalidatedAtAdmission: a queued prefetch whose range
// got produced by overlapping demand work is dropped at admission instead
// of restarting for nothing.
func TestQueuedPrefetchRevalidatedAtAdmission(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	// Busy slot producing [1,4].
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	// Prefetch of [9,12] queues behind it.
	if _, err := h.v.GuidedPrefetch("b1", "c", []string{ctx.Filename(10)}); err != nil {
		t.Fatal(err)
	}
	if d := h.v.Scheduler().QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want the queued prefetch", d)
	}
	// While it waits, its whole range appears on disk (recovered files,
	// an overlapping producer): the job is stale.
	if err := h.v.Preload("c", []int{9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	st, _ := h.v.Stats("c")
	if st.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (stale prefetch dropped at admission)", st.Restarts)
	}
	if ss := h.v.SchedStats(); ss.Canceled != 1 {
		t.Errorf("canceled = %d, want the revalidated prefetch", ss.Canceled)
	}
}

// TestClientDisconnectedDequeuesPrefetch: a disconnect removes the
// client's queued prefetch jobs and publishes their orphaned steps.
func TestClientDisconnectedDequeuesPrefetch(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("b1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	if d := h.v.Scheduler().QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d", d)
	}
	// The steps of the queued job are promised (pending marker).
	if _, promised, _ := h.v.FileState("c", ctx.Filename(9)); !promised {
		t.Fatal("queued prefetch steps should be promised")
	}
	h.v.ClientDisconnected("b1")
	if d := h.v.Scheduler().QueueDepth(); d != 0 {
		t.Fatalf("queue depth after disconnect = %d, want 0", d)
	}
	if _, promised, _ := h.v.FileState("c", ctx.Filename(9)); promised {
		t.Error("orphaned steps still promised after disconnect")
	}
	h.eng.Run(0)
	st, _ := h.v.Stats("c")
	if st.Restarts != 1 {
		t.Errorf("restarts = %d, want only the demand one", st.Restarts)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClientDisconnectedSparesWantedWork: a queued prefetch another client
// waits on survives the requester's disconnect.
func TestClientDisconnectedSparesWantedWork(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("b1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	// Another client opens a step in the queued range: it joins the
	// pending promise and must keep the job alive.
	got := false
	if _, err := h.v.Open("a2", "c", ctx.Filename(9)); err != nil {
		t.Fatal(err)
	}
	if err := h.v.WaitFile("a2", "c", ctx.Filename(9), func(st notify.Event) {
		got = st.Err == ""
	}); err != nil {
		t.Fatal(err)
	}
	h.v.ClientDisconnected("b1")
	if d := h.v.Scheduler().QueueDepth(); d != 1 {
		t.Fatalf("queue depth after disconnect = %d, want the kept job", d)
	}
	h.eng.Run(0)
	if !got {
		t.Error("waiter on the kept job never fired")
	}
}

// TestSchedStatsExposed: the Virtualizer surfaces the scheduler counters.
func TestSchedStatsExposed(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := newHarness(t, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(9)); err != nil {
		t.Fatal(err)
	}
	st := h.v.SchedStats()
	if st.Submitted != 2 || st.Admitted != 1 || st.Queued != 1 || st.QueueDepth != 1 {
		t.Errorf("sched stats = %+v", st)
	}
	h.eng.Run(0)
	if st = h.v.SchedStats(); st.QueueDepth != 0 || st.MaxQueueDepth != 1 {
		t.Errorf("after run: %+v", st)
	}
}

// pipelineSchedPair builds the coarse→fine pair on a scheduler-configured
// harness.
func pipelineSchedPair(t *testing.T, cfg sched.Config) (*harness, *model.Context, *model.Context) {
	t.Helper()
	coarse := &model.Context{
		Name:               "coarse",
		Grid:               model.Grid{DeltaD: 4, DeltaR: 16, Timesteps: 128},
		OutputBytes:        1,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
		NoPrefetch:         true,
	}
	coarse.ApplyDefaults()
	fine := &model.Context{
		Name:               "fine",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 128},
		OutputBytes:        1,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
		Upstream:           "coarse",
		NoPrefetch:         true,
	}
	fine.ApplyDefaults()
	h := schedHarness(t, cfg, coarse, fine)
	return h, coarse, fine
}

// TestPipelineUnderNodeBudget: a one-node budget must not deadlock the
// pipeline — the fine simulation parks its nodes while waiting for the
// coarse input, so the coarse (upstream) re-simulation can be admitted.
func TestPipelineUnderNodeBudget(t *testing.T) {
	h, _, fine := pipelineSchedPair(t, sched.Config{TotalNodes: 1})
	file := fine.Filename(20) // interval (16,24] needs coarse steps 5..6
	if _, err := h.v.Open("a1", "fine", file); err != nil {
		t.Fatal(err)
	}
	ready := false
	if err := h.v.WaitFile("a1", "fine", file, func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("pipeline wait failed: %s", st.Err)
		}
		ready = true
	}); err != nil {
		t.Fatal(err)
	}
	if !h.eng.Run(1_000_000) {
		t.Fatal("runaway event loop")
	}
	if !ready {
		t.Fatal("pipeline under a node budget never produced the file (budget deadlock)")
	}
	cs, _ := h.v.Stats("coarse")
	fs, _ := h.v.Stats("fine")
	if cs.Restarts == 0 || fs.Restarts == 0 {
		t.Fatalf("restarts coarse=%d fine=%d, want both stages to run", cs.Restarts, fs.Restarts)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineNodeBudgetContention: while the fine placeholder waits for
// its coarse input, an unrelated demand sim grabs the budget; the ready
// placeholder must requeue (not launch over budget, not deadlock) and
// complete once nodes free.
func TestPipelineNodeBudgetContention(t *testing.T) {
	h, coarse, fine := pipelineSchedPair(t, sched.Config{TotalNodes: 1})
	file := fine.Filename(20)
	if _, err := h.v.Open("a1", "fine", file); err != nil {
		t.Fatal(err)
	}
	fineReady := false
	if err := h.v.WaitFile("a1", "fine", file, func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("fine wait failed: %s", st.Err)
		}
		fineReady = true
	}); err != nil {
		t.Fatal(err)
	}
	// Just before the coarse stage finishes (α 2s + 2·τ(4Δd→…) — run a
	// competing coarse demand open so the budget is taken when the fine
	// placeholder's inputs become ready.
	h.eng.Schedule(time.Second, func() {
		if _, err := h.v.Open("a2", "coarse", coarse.Filename(20)); err != nil {
			t.Error(err)
		}
	})
	if !h.eng.Run(1_000_000) {
		t.Fatal("runaway event loop")
	}
	if !fineReady {
		t.Fatal("fine output never produced under node-budget contention")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
