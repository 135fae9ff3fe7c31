package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"simfs/internal/faults"
	"simfs/internal/notify"
)

// retryHarness is the DES harness with the failure ledger enabled.
func retryHarness(t *testing.T, p RetryPolicy, ctxs ...string) *harness {
	t.Helper()
	h := newHarness(t)
	for _, name := range ctxs {
		if err := h.v.AddContext(testContext(name), "DCL", nil); err != nil {
			t.Fatal(err)
		}
	}
	h.v.SetRetryPolicy(p)
	return h
}

// A granted retry relaunches in the SimEnded hold of the failure: the
// first launch, at 0, fails at its start α = 2 s later, and the second
// launch lands at that same instant.
func TestRetryRelaunchesAtFailure(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Cooldown: time.Minute})
	var launches []time.Duration
	fail := faults.NewSimPlan().WithFailN("c", 4, 1, 0).FailAt
	h.l.FailAt = func(ctxName string, first, last int) int {
		launches = append(launches, h.eng.Now())
		return fail(ctxName, first, last)
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(4)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if want := []time.Duration{0, 2 * time.Second}; !slices.Equal(launches, want) {
		t.Fatalf("launches at %v, want %v", launches, want)
	}
	if resident, _, err := h.v.FileState("c", ctx.Filename(4)); err != nil || !resident {
		t.Errorf("step 4 resident = %v (%v) after the retry, want true", resident, err)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	h := retryHarness(t, RetryPolicy{MaxAttempts: 3, Cooldown: time.Minute}, "c")
	ctx, _ := h.v.Context("c")
	// The first two launches of the interval covering step 4 crash
	// before producing anything; the third succeeds.
	h.l.FailAt = faults.NewSimPlan().WithFailN("c", 4, 2, 0).FailAt

	file := ctx.Filename(4)
	var st *notify.Event
	if res, err := openAwait(h.v, "a1", "c", file, func(s notify.Event) { st = &s }); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	h.eng.Run(0)
	if st == nil {
		t.Fatal("waiter never notified")
	}
	if st.Err != "" || st.Kind != notify.FileReady {
		t.Fatalf("waiter should ride through the retries, got %+v", *st)
	}
	stats, _ := h.v.Stats("c")
	r, _ := h.v.Report("c")
	retries, quarantined := r.Retries, r.Quarantined
	if stats.Failures != 2 || retries != 2 || quarantined != 0 {
		t.Errorf("failures/retries/quarantined = %d/%d/%d, want 2/2/0",
			stats.Failures, retries, quarantined)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestQuarantineFailsWaitersStructured(t *testing.T) {
	h := retryHarness(t, RetryPolicy{MaxAttempts: 2, Cooldown: time.Minute}, "c")
	ctx, _ := h.v.Context("c")
	h.l.FailAt = faults.NewSimPlan().WithCrashAt("c", -1, 0).FailAt // permanent

	file := ctx.Filename(4)
	var st *notify.Event
	if res, err := openAwait(h.v, "a1", "c", file, func(s notify.Event) { st = &s }); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	h.eng.Run(0)
	if st == nil {
		t.Fatal("waiter never notified")
	}
	if st.Err == "" || st.Attempts != 3 || time.Duration(st.RetryAfter) != time.Minute {
		t.Fatalf("waiter should carry the structured quarantine error, got %+v", *st)
	}
	stats, _ := h.v.Stats("c")
	r, _ := h.v.Report("c")
	retries, quarantined := r.Retries, r.Quarantined
	if stats.Failures != 3 || retries != 2 || quarantined != 1 {
		t.Errorf("failures/retries/quarantined = %d/%d/%d, want 3/2/1",
			stats.Failures, retries, quarantined)
	}

	// Demand opens now fail fast with the structured error and launch
	// nothing.
	before := stats.Restarts
	_, err := h.v.Open("a1", "c", file)
	var qerr *QuarantineError
	if !errors.As(err, &qerr) {
		t.Fatalf("open during quarantine = %v, want QuarantineError", err)
	}
	if qerr.Attempts != 3 || qerr.RetryAfter <= 0 {
		t.Errorf("quarantine error = %+v", qerr)
	}
	stats, _ = h.v.Stats("c")
	if stats.Restarts != before {
		t.Error("quarantined open must not launch")
	}
	// The failed-fast open must not leak its reference: only the first
	// (pre-quarantine) open's ref remains.
	if err := h.v.Release("a1", "c", file); err != nil {
		t.Errorf("release of first open's ref: %v", err)
	}
	if err := h.v.Release("a1", "c", file); err == nil {
		t.Error("reference was not rolled back on quarantine fail-fast")
	}
	// Nor a zero-count entry: a client holding nothing is refused and the
	// ledger stays empty, for CheckInvariants and for deregistration.
	if _, err := h.v.Open("a2", "c", file); !errors.As(err, &qerr) {
		t.Fatalf("second client's open during quarantine = %v, want QuarantineError", err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := h.v.RemoveContext("c"); err != nil {
		t.Errorf("deregistration after the refused open: %v", err)
	}
}

func TestQuarantineHalfOpensAfterCooldown(t *testing.T) {
	h := retryHarness(t, RetryPolicy{MaxAttempts: 1, Cooldown: 30 * time.Second}, "c")
	ctx, _ := h.v.Context("c")
	// Two failures exhaust the budget (1 retry), then the fault heals.
	h.l.FailAt = faults.NewSimPlan().WithFailN("c", 4, 2, 0).FailAt

	file := ctx.Filename(4)
	h.v.Open("a1", "c", file)
	h.eng.Run(0)
	if _, err := h.v.Open("a1", "c", file); err == nil {
		t.Fatal("interval should be quarantined")
	}

	// Ride past the cooldown in virtual time: the breaker half-opens and
	// the next open launches a probe, which succeeds and clears the slate.
	h.eng.Schedule(31*time.Second, func() {})
	h.eng.Run(0)
	var st *notify.Event
	if res, err := openAwait(h.v, "a1", "c", file, func(s notify.Event) { st = &s }); err != nil || !res.Awaited {
		t.Fatalf("open after cooldown = %+v, %v, want an awaited probe launch", res, err)
	}
	h.eng.Run(0)
	if st == nil || st.Err != "" || st.Kind != notify.FileReady {
		t.Fatalf("probe launch should produce the file, got %+v", st)
	}
	// A later failure starts a fresh ledger entry (slate cleared).
	if r, _ := h.v.Report("c"); r.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", r.Quarantined)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResetQuarantine(t *testing.T) {
	h := retryHarness(t, RetryPolicy{MaxAttempts: 1, Cooldown: time.Hour}, "c")
	ctx, _ := h.v.Context("c")
	plan := faults.NewSimPlan().WithFailN("c", 4, 2, 0)
	h.l.FailAt = plan.FailAt

	file := ctx.Filename(4)
	h.v.Open("a1", "c", file)
	h.eng.Run(0)
	if _, err := h.v.Open("a1", "c", file); err == nil {
		t.Fatal("interval should be quarantined")
	}

	if n, err := h.v.ResetQuarantine(""); err != nil || n != 1 {
		t.Fatalf("ResetQuarantine = %d, %v, want 1 released", n, err)
	}
	if _, err := h.v.Open("a1", "c", file); err != nil {
		t.Fatalf("open after reset = %v", err)
	}
	h.eng.Run(0)
	if resident, _, _ := h.v.FileState("c", file); !resident {
		t.Error("post-reset launch should produce the file")
	}

	if _, err := h.v.ResetQuarantine("nope"); err == nil {
		t.Error("unknown context accepted")
	}
}

func TestPrefetchSkipsQuarantinedInterval(t *testing.T) {
	h := retryHarness(t, RetryPolicy{MaxAttempts: 1, Cooldown: time.Hour}, "c")
	ctx, _ := h.v.Context("c")
	h.l.FailAt = faults.NewSimPlan().WithCrashAt("c", -1, 0).FailAt

	h.v.Open("a1", "c", ctx.Filename(4))
	h.eng.Run(0)
	stats, _ := h.v.Stats("c")
	if r, _ := h.v.Report("c"); r.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", r.Quarantined)
	}
	before := stats.Restarts
	dropped := stats.DroppedPrefetch
	if n, err := h.v.GuidedPrefetch("a1", "c", []string{ctx.Filename(3)}); err != nil || n != 0 {
		t.Fatalf("GuidedPrefetch = %d, %v, want 0 launches", n, err)
	}
	stats, _ = h.v.Stats("c")
	if stats.Restarts != before {
		t.Error("guided prefetch must not launch into a quarantined interval")
	}
	if stats.DroppedPrefetch != dropped+1 {
		t.Errorf("dropped prefetch = %d, want %d", stats.DroppedPrefetch, dropped+1)
	}
}

// TestRetryDroppedAtCapacityFailsJoinedWatchers pins the stranded-watcher
// hang: a crashed prefetch's retry clears the interval's promises and
// resubmits at its own (agent) class, which the paper-exact scheduler
// drops when the context sits at smax. Whoever joined the
// promise — a core waiter, a hub subscriber — must then be told the
// file failed instead of waiting on a simulation that will never run.
func TestRetryDroppedAtCapacityFailsJoinedWatchers(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := newHarness(t, ctx) // zero sched.Config: prefetch beyond smax is dropped
	h.v.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Cooldown: time.Minute})
	// The prefetch of [9,12] crashes once, before producing anything
	// (at t=α=2s); its retry is submitted at that instant.
	h.l.FailAt = faults.NewSimPlan().WithFailN("c", 10, 1, 0).FailAt
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)

	file := ctx.Filename(10)
	topic := notify.Topic{Context: "c", Step: 10}
	sub := h.v.Hub().Subscribe(topic)
	defer sub.Close()
	var st *notify.Event
	if f, err := watchFile(h.v, "w", "c", file, func(s notify.Event) { st = &s }); err != nil || !f.Promised {
		t.Fatalf("watch of the prefetched step = %+v, %v; want promised", f, err)
	}
	// While the prefetch runs, a demand miss queues behind it for the
	// context's one slot: a queued job counts against smax at submission,
	// so the retry finds the scheduler at smax.
	h.eng.Schedule(time.Second, func() {
		if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
			t.Errorf("open: %v", err)
		}
	})
	h.eng.Run(0)

	if stats, _ := h.v.Stats("c"); stats.DroppedPrefetch != 1 {
		t.Fatalf("dropped prefetch = %d, want the retry dropped at smax", stats.DroppedPrefetch)
	}
	if st == nil || st.Err == "" {
		t.Errorf("waiter on the dropped retry's step: %+v, want a failure", st)
	}
	select {
	case ev := <-sub.C():
		if ev.Kind != notify.FileFailed {
			t.Errorf("subscriber got %+v, want FileFailed", ev)
		}
	default:
		t.Error("subscriber on the dropped retry's step was never notified")
	}
	if _, promised, _ := h.v.FileState("c", file); promised {
		t.Error("step still promised with no simulation or queued job behind it")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
