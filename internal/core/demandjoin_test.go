package core

import (
	"reflect"
	"testing"
	"time"

	"simfs/internal/notify"
	"simfs/internal/sched"
)

// TestDemandJoinPromotesQueuedPrefetch: under Priorities, a demand open
// landing inside a *queued* prefetch's promised range lifts that job to
// demand class — it jumps the agent queue instead of parking the client
// behind FIFO speculation.
func TestDemandJoinPromotesQueuedPrefetch(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1}, ctx)
	// One running prefetch holds the budget; two more queue behind it.
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	injectAgentPrefetch(t, h, "c", "spec", 20, 23)
	injectAgentPrefetch(t, h, "c", "spec", 30, 33)
	if d := h.v.SchedStats().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want 2 queued prefetches", d)
	}

	// The demand open lands inside the *second* queued job's range.
	var at31, at20 time.Duration
	if res, err := openAwait(h.v, "a1", "c", ctx.Filename(31), func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("demand wait failed: %s", st.Err)
		}
		at31 = h.eng.Now()
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	if ss := h.v.SchedStats(); ss.Promoted != 1 {
		t.Fatalf("Promoted = %d after the joining open, want 1", ss.Promoted)
	}
	if f, err := watchFile(h.v, "spec", "c", ctx.Filename(20), func(st notify.Event) {
		at20 = h.eng.Now()
	}); err != nil || !f.Promised {
		t.Fatalf("watch of the queued prefetch's step = %+v, %v; want promised", f, err)
	}
	h.eng.Run(0)

	// The promoted job outranks the older queued prefetch. Launches snap
	// to restart windows (ΔR=4), so [30,33] runs as [29,36] when the
	// budget frees at t=6s — step 31 lands at 6+α+3τ=11s and the sim ends
	// at 16s; the unpromoted [20,23] runs as [17,24] after it, step 20 at
	// 16+α+4τ=22s.
	if at31 != 11*time.Second {
		t.Errorf("joined demand served at %v, want 11s (promoted job pops first)", at31)
	}
	if at20 != 22*time.Second {
		t.Errorf("bypassed prefetch served at %v, want 22s (behind the promoted job)", at20)
	}
	// The promoted job bills the demand ledger for the post-promotion
	// wait only: promoted at t=0, popped at t=6s.
	if ss := h.v.SchedStats(); ss.DemandWait.Jobs != 1 || ss.DemandWait.Wait != 6*time.Second {
		t.Errorf("demand ledger = %+v, want the promoted job's 6s wait", ss.DemandWait)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemandJoinOffKeepsQueueOrder: demand-join is part of Priorities and
// of nothing else. With Priorities off (flipped live, so the prefetches
// queued under it are still there) the same open just joins the queued
// job as a waiter — no promotion, submission order preserved.
func TestDemandJoinOffKeepsQueueOrder(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	injectAgentPrefetch(t, h, "c", "spec", 20, 23)
	injectAgentPrefetch(t, h, "c", "spec", 30, 33)
	off := false
	if _, err := h.v.UpdateSchedConfig(sched.Patch{Priorities: &off}); err != nil {
		t.Fatal(err)
	}
	before := h.v.sched.QueuedRanges("c")

	var at31, at20 time.Duration
	if res, err := openAwait(h.v, "a1", "c", ctx.Filename(31), func(st notify.Event) {
		at31 = h.eng.Now()
	}); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	if ss := h.v.SchedStats(); ss.Promoted != 0 {
		t.Fatalf("Promoted = %d with Priorities off, want 0", ss.Promoted)
	}
	if after := h.v.sched.QueuedRanges("c"); !reflect.DeepEqual(before, after) {
		t.Fatalf("queue order changed with Priorities off: %v → %v", before, after)
	}
	if f, err := watchFile(h.v, "spec", "c", ctx.Filename(20), func(st notify.Event) {
		at20 = h.eng.Now()
	}); err != nil || !f.Promised {
		t.Fatalf("watch of the queued prefetch's step = %+v, %v; want promised", f, err)
	}
	h.eng.Run(0)
	if at20 >= at31 {
		t.Errorf("FIFO order broken with Priorities off: step 20 at %v, step 31 at %v", at20, at31)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptSparesGuidedPrefetch: only agent speculation is killable; a
// guided prefetch is an explicit client hint and a node-blocked demand
// miss waits it out.
func TestPreemptSparesGuidedPrefetch(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	cs, _ := h.v.shardOf("c")
	cs.mu.Lock()
	h.v.launch(cs, 9, 12, 1, sched.Guided, "g1")
	cs.mu.Unlock()
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if ss := h.v.SchedStats(); ss.Preempted != 0 {
		t.Fatalf("Preempted = %d, want 0", ss.Preempted)
	}
	h.eng.Run(0)
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
