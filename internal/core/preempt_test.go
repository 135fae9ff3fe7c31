package core

import (
	"testing"
	"time"

	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// injectAgentPrefetch submits a speculative agent-prefetch launch the way
// a prefetch agent would, from under the shard lock.
func injectAgentPrefetch(t *testing.T, h *harness, ctxName, client string, first, last int) {
	t.Helper()
	cs, ok := h.v.shardOf(ctxName)
	if !ok {
		t.Fatalf("unknown context %q", ctxName)
	}
	cs.mu.Lock()
	h.v.launch(cs, first, last, 1, sched.Agent, client)
	cs.mu.Unlock()
}

// TestPreemptionKillsAgentPrefetchForDemand: with the one-node budget
// held by a running agent prefetch, a demand miss kills it instead of
// waiting behind it, and the victim's interval is requeued — the
// speculative work finishes later instead of being lost.
func TestPreemptionKillsAgentPrefetchForDemand(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)

	var demandAt time.Duration
	if res, err := openAwait(h.v, "a1", "c", ctx.Filename(1), func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("demand wait failed: %s", st.Err)
		}
		demandAt = h.eng.Now()
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	if st := h.v.SchedStats(); st.Preempted != 1 {
		t.Fatalf("Preempted = %d after the blocked demand open, want 1", st.Preempted)
	}
	h.eng.Run(0)

	// With the victim killed at t=0 the demand sim starts immediately:
	// α (2 s) + 1·τ (1 s). Waiting out the prefetch would have cost the
	// victim's full α + 4·τ = 6 s first.
	if demandAt != 3*time.Second {
		t.Errorf("demand served at %v, want 3s (preempted victim's nodes reused immediately)", demandAt)
	}
	// The requeued interval completed afterwards: speculation deferred,
	// not discarded.
	for s := 9; s <= 12; s++ {
		if resident, _, _ := h.v.FileState("c", ctx.Filename(s)); !resident {
			t.Errorf("step %d of the preempted prefetch never rematerialized", s)
		}
	}
	st, _ := h.v.Stats("c")
	if st.Kills != 1 {
		t.Errorf("kills = %d, want the one preemption kill", st.Kills)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// preemptedRanges lists the first steps of ctxName's simulations the
// preemption path has killed.
func preemptedRanges(h *harness, ctxName string) []int {
	cs, _ := h.v.shardOf(ctxName)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var firsts []int
	for _, sim := range cs.sims {
		if sim.preempted {
			firsts = append(firsts, sim.first)
		}
	}
	return firsts
}

// TestPreemptKillsYoungestAgentPrefetch pins the victim order: of two
// idle agent prefetches holding the whole node budget, a node-blocked
// demand miss kills the one launched last, and on equal launch instants
// the one with the higher simulation id.
func TestPreemptKillsYoungestAgentPrefetch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		secondAt   time.Duration // when the [17,20] prefetch launches; [9,12] launches at 0
		firstLater bool          // restamp [9,12] as launched after [17,20], keeping its lower id
		want       int
	}{
		{name: "later launch", secondAt: time.Second, want: 17},
		{name: "later launch with the lower id", firstLater: true, want: 9},
		{name: "equal instants, higher id", want: 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testContext("c")
			h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 2, Preempt: sched.PreemptYoungest}, ctx)
			injectAgentPrefetch(t, h, "c", "spec", 9, 12)
			h.eng.RunUntil(tc.secondAt)
			injectAgentPrefetch(t, h, "c", "spec", 17, 20)
			if tc.firstLater {
				// A pipeline simulation is stamped when admitted but gets
				// its launcher id only once its upstream inputs land, so
				// launch order and id order can disagree.
				cs, _ := h.v.shardOf("c")
				cs.mu.Lock()
				for _, sim := range cs.sims {
					if sim.first == 9 {
						sim.launchedAt = time.Second
					}
				}
				cs.mu.Unlock()
			}
			if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
				t.Fatal(err)
			}
			if got := preemptedRanges(h, "c"); len(got) != 1 || got[0] != tc.want {
				t.Fatalf("preempted the prefetches starting at %v, want only the one at %d", got, tc.want)
			}
			h.eng.Run(0)
			if err := h.v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreemptVictimClassAndSwitch: only agent speculation is a victim —
// a running guided prefetch and a running demand simulation nobody
// waits on survive a node-blocked demand miss — and with Preempt off not
// even an idle agent prefetch is killed.
func TestPreemptVictimClassAndSwitch(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 2, Preempt: sched.PreemptYoungest}, ctx)
	cs, _ := h.v.shardOf("c")
	cs.mu.Lock()
	h.v.launch(cs, 9, 12, 1, sched.Guided, "g1")
	h.v.launch(cs, 17, 20, 1, sched.Demand, "d1")
	cs.mu.Unlock()
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if got := preemptedRanges(h, "c"); len(got) != 0 {
		t.Errorf("preempted %v, want no guided or demand victim", got)
	}

	off := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1}, testContext("c"))
	injectAgentPrefetch(t, off, "c", "spec", 9, 12)
	if _, err := off.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if got := preemptedRanges(off, "c"); len(got) != 0 {
		t.Errorf("preempted %v with Preempt off, want nothing", got)
	}
	for _, hh := range []*harness{h, off} {
		if st := hh.v.SchedStats(); st.Preempted != 0 {
			t.Errorf("Preempted = %d, want 0", st.Preempted)
		}
		hh.eng.Run(0)
		if err := hh.v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreemptSparesCoalescedPrefetchWithWaiters: a running prefetch
// born from a coalesced multi-client job whose range someone now waits
// on must not be killed (the paper's no-waiters rule), even while a
// demand miss starves on the node budget.
func TestPreemptSparesCoalescedPrefetchWithWaiters(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{
		Coalesce: true, Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest,
	}, ctx)
	// Fill the budget with demand work, then queue two mergeable
	// prefetches from different clients: they coalesce into one job.
	if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("p1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("p2", "c", []string{ctx.Filename(11)}); err != nil {
		t.Fatal(err)
	}
	if d := h.v.SchedStats().QueueDepth; d != 1 {
		t.Fatalf("queue depth = %d, want 1 coalesced prefetch job", d)
	}
	// Let the demand work finish so the merged prefetch launches.
	h.eng.Run(0)
	// Re-open far-away demand work that will miss below, and register a
	// waiter inside the running prefetch's range.
	cs, _ := h.v.shardOf("c")
	cs.mu.Lock()
	h.v.launch(cs, 61, 64, 1, sched.Agent, "spec")
	cs.mu.Unlock()
	if st := h.v.SchedStats(); st.Preempted != 0 {
		t.Fatalf("Preempted = %d before any demand pressure, want 0", st.Preempted)
	}
	got := false
	if res, err := openAwait(h.v, "w", "c", ctx.Filename(62), func(st notify.Event) {
		got = st.Err == ""
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	// The demand miss is node-blocked, but the only candidate's range
	// has a waiter: nothing may die.
	if _, err := h.v.Open("a1", "c", ctx.Filename(30)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 0 {
		t.Fatalf("Preempted = %d, want 0 (no-waiters rule protects the sim)", st.Preempted)
	}
	h.eng.Run(0)
	if !got {
		t.Error("the protected prefetch never served its waiter")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// watchOne registers a stream of client's on one file (the server's
// subscribe path).
func watchOne(t *testing.T, h *harness, client, ctxName, file string) *watcher {
	t.Helper()
	sub, _, err := watch(h.v, client, ctxName, []string{file})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return sub
}

// wantReady checks, without blocking, that the stream's one event is
// FileReady.
func wantReady(t *testing.T, sub *watcher) {
	t.Helper()
	select {
	case ev := <-sub.C():
		if ev.Kind != notify.FileReady {
			t.Errorf("stream got %v %q, want ready", ev.Kind, ev.Err)
		}
	default:
		t.Error("stream got no event")
	}
}

// TestStreamWatcherProtectsPrefetch: the no-waiters rule counts stream
// watchers, not only in-process waiters — a prefetch another client
// watches over a stream survives its owner's disconnect and serves it.
func TestStreamWatcherProtectsPrefetch(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	if _, err := h.v.GuidedPrefetch("p1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	sub := watchOne(t, h, "w", "c", ctx.Filename(9))
	h.v.ClientDisconnected("p1")
	h.eng.Run(0)
	wantReady(t, sub)
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptSparesStreamWatchedPrefetch is the preemption twin: a
// running agent prefetch whose range a stream watches is no victim.
func TestPreemptSparesStreamWatchedPrefetch(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 61, 64)
	sub := watchOne(t, h, "w", "c", ctx.Filename(62))
	if _, err := h.v.Open("a1", "c", ctx.Filename(30)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 0 {
		t.Fatalf("Preempted = %d, want 0 (a stream watches the only candidate)", st.Preempted)
	}
	h.eng.Run(0)
	wantReady(t, sub)
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptVictimFinishedBetweenSelectionAndKill: the kill re-checks
// the victim under its shard lock — a simulation that completed after
// selection is simply no longer preemptable, with no ledger damage.
func TestPreemptVictimFinishedBetweenSelectionAndKill(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	vcs, simID := h.v.youngestVictim()
	if vcs == nil {
		t.Fatal("no victim found, want the running prefetch")
	}
	// The victim completes while the selection is in hand.
	h.eng.Run(0)
	if h.v.killVictim(vcs, simID) {
		t.Fatal("killVictim succeeded against a finished simulation")
	}
	if st := h.v.SchedStats(); st.Preempted != 0 {
		t.Errorf("Preempted = %d, want 0", st.Preempted)
	}
	// The budget is free: a demand open admits immediately.
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if resident, _, _ := h.v.FileState("c", ctx.Filename(1)); !resident {
		t.Error("demand work never produced after the stale-victim retry")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptSkipsSimBeingCancelled: a sim whose cancellation kill is
// already in flight (disconnect, agent reset) must not be chosen as a
// preemption victim — marking it preempted would convert the intended
// cancellation into a requeue, resurrecting the dismantled prefetch.
func TestPreemptSkipsSimBeingCancelled(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	// The client disconnects: its running prefetch gets a cancellation
	// kill whose SimEnded has not been delivered yet.
	h.v.ClientDisconnected("spec")
	// A demand miss lands in that window. The dying sim must not be
	// selected (its nodes come back through the cancellation anyway).
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 0 {
		t.Fatalf("Preempted = %d, want 0 (the victim was already being cancelled)", st.Preempted)
	}
	h.eng.Run(0)
	// The cancellation stuck: the dismantled prefetch range was not
	// resurrected by a preemption requeue…
	for s := 9; s <= 12; s++ {
		if resident, promised, _ := h.v.FileState("c", ctx.Filename(s)); resident || promised {
			t.Errorf("step %d of the cancelled prefetch came back (resident=%v promised=%v)", s, resident, promised)
		}
	}
	// …while the demand work completed through the freed nodes.
	if resident, _, _ := h.v.FileState("c", ctx.Filename(1)); !resident {
		t.Error("demand work never completed after the cancellation freed the budget")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineUpstreamDemandTriggersPreemption: a downstream demand
// open that is itself admitted but whose pipeline-upstream demand
// launch queues node-blocked must still probe for preemption
// immediately — the cue bubbles out of the nested launch instead of
// waiting for an unrelated capacity event.
func TestPipelineUpstreamDemandTriggersPreemption(t *testing.T) {
	coarse := &model.Context{
		Name:               "coarse",
		Grid:               model.Grid{DeltaD: 4, DeltaR: 16, Timesteps: 128},
		OutputBytes:        1,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 2,
		MaxParallelism:     2,
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
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 3, Preempt: sched.PreemptYoungest}, coarse, fine)
	// A speculative agent prefetch holds 2 of the 3 budget nodes.
	cs, _ := h.v.shardOf("coarse")
	cs.mu.Lock()
	h.v.launch(cs, 20, 23, 2, sched.Agent, "spec")
	cs.mu.Unlock()
	// The fine demand open is admitted (1 node fits), parks on its
	// missing coarse inputs, and the upstream coarse demand launch
	// (P=2) queues node-blocked: the probe must fire right here.
	ready := false
	if res, err := openAwait(h.v, "a1", "fine", fine.Filename(20), func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("pipeline wait failed: %s", st.Err)
		}
		ready = true
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	if st := h.v.SchedStats(); st.Preempted != 1 {
		t.Fatalf("Preempted = %d after the pipeline open, want 1 (nested demand queue must probe)", st.Preempted)
	}
	if !h.eng.Run(1_000_000) {
		t.Fatal("runaway event loop")
	}
	if !ready {
		t.Fatal("pipeline output never produced after the preemption")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptRequeuePromotesToDemandForWaiters: a demand open landing
// on the victim's range in the kill→SimEnded window turns the requeue
// into demand-class work — the waiter must not be parked behind the
// agent queue it just preempted past.
func TestPreemptRequeuePromotesToDemandForWaiters(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 1 {
		t.Fatalf("Preempted = %d, want 1", st.Preempted)
	}
	// The victim is killed but its SimEnded has not run: its promise is
	// still registered, so this demand open just joins it as a waiter.
	got := false
	if res, err := openAwait(h.v, "a2", "c", ctx.Filename(10), func(st notify.Event) {
		got = st.Err == ""
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	h.eng.Run(0)
	if !got {
		t.Fatal("the waiter on the preempted range was never served")
	}
	// The requeue ran as demand-class work: both the original demand job
	// and the promoted requeue count in the demand wait ledger.
	if ss := h.v.SchedStats(); ss.DemandWait.Jobs != 2 || ss.AgentWait.Jobs != 0 {
		t.Errorf("class ledger = demand %d / agent %d jobs, want the requeue promoted to demand (2/0)",
			ss.DemandWait.Jobs, ss.AgentWait.Jobs)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptThenCancelDoesNotRequeue: a cancellation (disconnect,
// reset) racing in after a preemption kill wins — the victim's interval
// must not be requeued, or the cancellation's dismantling would be
// undone by the preemption's deferral.
func TestPreemptThenCancelDoesNotRequeue(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	// The demand miss preempts the prefetch…
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 1 {
		t.Fatalf("Preempted = %d, want 1", st.Preempted)
	}
	// …and before the kill's SimEnded lands, the prefetching client
	// disconnects: the cancellation must win over the requeue.
	h.v.ClientDisconnected("spec")
	h.eng.Run(0)
	for s := 9; s <= 12; s++ {
		if resident, promised, _ := h.v.FileState("c", ctx.Filename(s)); resident || promised {
			t.Errorf("step %d of the cancelled victim was resurrected (resident=%v promised=%v)", s, resident, promised)
		}
	}
	if _, ok := h.v.sched.QuotaDebt("spec"); ok {
		t.Error("the departed client re-entered the quota ledger through the requeue")
	}
	if resident, _, _ := h.v.FileState("c", ctx.Filename(1)); !resident {
		t.Error("demand work never completed")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectOrphansSurvivingSimBilling: a sim that outlives its
// client's disconnect (live waiters protect it from the kill) loses its
// billing identity, so a later requeue cannot re-plant the quota entry
// DropClientQuota just removed as an undeletable ghost.
func TestDisconnectOrphansSurvivingSimBilling(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, DRRQuantum: 4}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	// Another client waits inside the range: the disconnect kill is
	// blocked by the no-waiters rule, so the sim survives its owner.
	got := false
	if res, err := openAwait(h.v, "a2", "c", ctx.Filename(10), func(st notify.Event) {
		got = st.Err == ""
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	h.v.ClientDisconnected("spec")
	cs, _ := h.v.shardOf("c")
	cs.mu.Lock()
	var alive *simState
	for _, sim := range cs.sims {
		if sim.prefetchFor == "spec" && !sim.killing {
			alive = sim
		}
	}
	cs.mu.Unlock()
	if alive == nil {
		t.Fatal("the protected prefetch did not survive the disconnect")
	}
	if alive.client != "" {
		t.Errorf("surviving sim still bills %q; want the identity orphaned", alive.client)
	}
	h.eng.Run(0)
	if !got {
		t.Error("the surviving prefetch never served its waiter")
	}
	if _, ok := h.v.sched.QuotaDebt("spec"); ok {
		t.Error("the departed client re-entered the quota ledger")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClientDisconnectReleasesQuotaDebt: a departed client's DRR debt
// dies with it — an unrelated client reusing the name later starts with
// a clean ledger.
func TestClientDisconnectReleasesQuotaDebt(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true, DRRQuantum: 4}, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("b1", "c", []string{ctx.Filename(9)}); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if _, ok := h.v.sched.QuotaDebt("b1"); !ok {
		t.Fatal("the drained prefetch never charged its client's quota")
	}
	h.v.ClientDisconnected("b1")
	if _, ok := h.v.sched.QuotaDebt("b1"); ok {
		t.Error("quota debt survived the disconnect")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
