package core

import (
	"errors"
	"testing"

	"simfs/internal/notify"
	"simfs/internal/sched"
)

// Drain refuses new opens and prefetches with ErrDraining; releases and
// running work still land, and Resume lifts the gate.
func TestDrainRefusesNewWork(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	file := ctx.Filename(2)
	if _, err := h.v.Open("a1", "c", file); err != nil {
		t.Fatal(err)
	}
	if err := h.v.Drain("c"); err != nil {
		t.Fatal(err)
	}
	if d, _ := h.v.Draining("c"); !d {
		t.Fatal("Draining not reported")
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(9)); !errors.Is(err, ErrDraining) {
		t.Errorf("open while draining = %v, want ErrDraining", err)
	}
	if _, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(9)}); !errors.Is(err, ErrDraining) {
		t.Errorf("prefetch while draining = %v, want ErrDraining", err)
	}
	// The pre-drain simulation still completes and the reference can be
	// released — a drained context empties out.
	h.eng.Run(0)
	if resident, _, err := h.v.FileState("c", file); err != nil || !resident {
		t.Fatalf("pre-drain work did not complete: resident=%v err=%v", resident, err)
	}
	if err := h.v.Release("a1", "c", file); err != nil {
		t.Errorf("release while draining: %v", err)
	}
	if err := h.v.Resume("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(9)); err != nil {
		t.Errorf("open after resume: %v", err)
	}
	h.eng.Run(0)
	if err := h.v.Release("a1", "c", ctx.Filename(9)); err != nil {
		t.Fatal(err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// RemoveContext needs a quiescent context: references, live simulations
// and downstream dependents each refuse with ErrBusy; once drained, the
// context disappears and its queued work is dismantled.
func TestRemoveContextLifecycle(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	file := ctx.Filename(2)
	if _, err := h.v.Open("a1", "c", file); err != nil {
		t.Fatal(err)
	}
	// Referenced + simulating: busy.
	if err := h.v.RemoveContext("c"); !errors.Is(err, ErrBusy) {
		t.Fatalf("remove of a busy context = %v, want ErrBusy", err)
	}
	// The failed removal still put the context into draining.
	if d, _ := h.v.Draining("c"); !d {
		t.Error("failed removal should leave the context draining")
	}
	h.eng.Run(0) // simulation completes
	if err := h.v.RemoveContext("c"); !errors.Is(err, ErrBusy) {
		t.Fatalf("remove with a held reference = %v, want ErrBusy", err)
	}
	if err := h.v.Release("a1", "c", file); err != nil {
		t.Fatal(err)
	}
	if err := h.v.RemoveContext("c"); err != nil {
		t.Fatalf("remove of a quiescent context: %v", err)
	}
	if _, err := h.v.Open("a1", "c", file); !errors.Is(err, ErrUnknownContext) {
		t.Errorf("open after removal = %v, want ErrUnknownContext", err)
	}
	if names := h.v.ContextNames(); len(names) != 0 {
		t.Errorf("contexts after removal: %v", names)
	}
}

// A context serving as another's upstream cannot be removed.
func TestRemoveContextRefusedForUpstream(t *testing.T) {
	up := testContext("up")
	down := testContext("down")
	down.Upstream = "up"
	h := newHarness(t, up, down)
	if err := h.v.RemoveContext("up"); !errors.Is(err, ErrBusy) {
		t.Fatalf("remove of an upstream context = %v, want ErrBusy", err)
	}
	// The downstream context itself can go; then the upstream is free.
	if err := h.v.RemoveContext("down"); err != nil {
		t.Fatal(err)
	}
	if err := h.v.RemoveContext("up"); err != nil {
		t.Fatal(err)
	}
}

// SetCachePolicy swaps the scheme live without disturbing residency.
func TestSetCachePolicyPreservesResidency(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	// Produce steps 1..4 (one restart interval).
	if _, err := h.v.Open("a1", "c", ctx.Filename(4)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if name, _ := h.v.CachePolicyName("c"); name != "DCL" {
		t.Fatalf("boot policy = %q", name)
	}
	if err := h.v.SetCachePolicy("c", "ARC"); err != nil {
		t.Fatal(err)
	}
	if name, _ := h.v.CachePolicyName("c"); name != "ARC" {
		t.Fatalf("policy after swap = %q", name)
	}
	for s := 1; s <= 4; s++ {
		if resident, _, _ := h.v.FileState("c", ctx.Filename(s)); !resident {
			t.Errorf("step %d lost residency in the swap", s)
		}
	}
	// The pinned reference survives the swap and still blocks eviction
	// accounting (sanity via invariants).
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := h.v.SetCachePolicy("c", "FIFO"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := h.v.SetCachePolicy("nope", "LRU"); !errors.Is(err, ErrUnknownContext) {
		t.Errorf("unknown context = %v", err)
	}
	if err := h.v.Release("a1", "c", ctx.Filename(4)); err != nil {
		t.Fatal(err)
	}
}

// A drained context's queued prefetch is canceled at admission instead
// of launching — the drain contract: nothing new starts, the context
// empties under its current workload.
func TestDrainCancelsQueuedPrefetch(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := newHarness(t, ctx)
	on := true
	if _, err := h.v.UpdateSchedConfig(sched.Patch{Priorities: &on}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	// Queued behind the running demand sim (smax=1).
	if _, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(17)}); err != nil {
		t.Fatal(err)
	}
	if _, promised, _ := h.v.FileState("c", ctx.Filename(17)); !promised {
		t.Fatal("prefetch was not queued")
	}
	if err := h.v.Drain("c"); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	// The demand work completed; the queued prefetch did not launch.
	if resident, _, _ := h.v.FileState("c", ctx.Filename(1)); !resident {
		t.Error("pre-drain demand work did not complete")
	}
	resident, promised, _ := h.v.FileState("c", ctx.Filename(17))
	if resident {
		t.Error("queued prefetch launched on a draining context")
	}
	if promised {
		t.Error("canceled prefetch left a dangling promise")
	}
	if err := h.v.Release("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.v.RemoveContext("c"); err != nil {
		t.Fatalf("drained context should now be removable: %v", err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// UpdateSchedConfig flips the admission rules on the live Virtualizer: a
// prefetch dropped under the zero config queues once priorities are on.
func TestSetSchedConfigLive(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := newHarness(t, ctx)
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(17)}); err != nil {
		t.Fatal(err)
	}
	st, _ := h.v.Stats("c")
	if st.DroppedPrefetch != 1 {
		t.Fatalf("dropped = %d, want 1 under the zero config", st.DroppedPrefetch)
	}
	on := true
	if _, err := h.v.UpdateSchedConfig(sched.Patch{Priorities: &on}); err != nil {
		t.Fatal(err)
	}
	if got := h.v.SchedConfig(); !got.Priorities {
		t.Fatalf("config did not stick: %+v", got)
	}
	if _, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(33)}); err != nil {
		t.Fatal(err)
	}
	st, _ = h.v.Stats("c")
	if st.DroppedPrefetch != 1 {
		t.Fatalf("dropped = %d after reconfigure, want still 1 (queued instead)", st.DroppedPrefetch)
	}
	h.eng.Run(0)
	if resident, _, _ := h.v.FileState("c", ctx.Filename(33)); !resident {
		t.Error("queued prefetch never produced its file after the slot freed")
	}
	if err := h.v.Release("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A queued prefetch-class job dropped at admission because its context
// drains takes the waiters that joined its promise down with it: they
// are failed, not left on steps nobody will produce.
func TestDrainDroppedPrefetchFailsJoinedWaiters(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	h.v.Open("a1", "c", ctx.Filename(2)) // takes the one slot
	if _, err := h.v.GuidedPrefetch("a2", "c", []string{ctx.Filename(6)}); err != nil {
		t.Fatal(err)
	}
	var got []notify.Event
	if f, err := watchFile(h.v, "a2", "c", ctx.Filename(6), func(st notify.Event) { got = append(got, st) }); err != nil || !f.Promised {
		t.Fatalf("the queued hint promises step 6: %+v, %v", f, err)
	}
	if err := h.v.Drain("c"); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0) // the running simulation ends; the drain pass drops the hint
	if len(got) != 1 || got[0].Err == "" {
		t.Errorf("waiter on the dropped hint: %+v, want one failure", got)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A stream on a file nobody opened — a subscribe between its Watch and
// the Withdraw of the file it finds unpromised — is failed when its
// context is deregistered, not left on a topic nothing will ever decide.
func TestRemoveContextFailsLeftoverWatchers(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	sub, files, err := watch(h.v, "w", "c", []string{ctx.Filename(7)})
	if err != nil {
		t.Fatal(err)
	}
	if files[0].Resident || files[0].Promised {
		t.Fatalf("watched file = %+v, want neither resident nor promised", files[0])
	}
	if err := h.v.RemoveContext("c"); err != nil {
		t.Fatalf("a stream is no busy reason: %v", err)
	}
	select {
	case ev := <-sub.C():
		if ev.Kind != notify.FileFailed || ev.Err != "context deregistered" {
			t.Errorf("event = %+v, want FileFailed %q", ev, "context deregistered")
		}
	default:
		t.Fatal("the stream got no event")
	}
	select {
	case ev, more := <-sub.C():
		if more {
			t.Errorf("second event %+v, want exactly one", ev)
		}
	default:
		t.Error("the stream was not completed after its one topic resolved")
	}
}
