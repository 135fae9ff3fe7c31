package core

import (
	"sync/atomic"
	"testing"
	"time"

	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// TestOpenAfterCancelKillIsServed: a disconnect kills its client's
// prefetch nobody waits for, and another client's open of a step in
// that range lands at the same instant, before the kill's SimEnded. The
// kill cleared the run's promises, so the open misses, launches its own
// run and is served; it must not join the dead run and fail.
func TestOpenAfterCancelKillIsServed(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{}, ctx)
	if n, err := h.v.GuidedPrefetch("b1", "c", []string{ctx.Filename(10)}); err != nil || n != 1 {
		t.Fatalf("GuidedPrefetch = %d, %v; want one launch", n, err)
	}
	var got *notify.Event
	h.eng.At(3*time.Second, func() {
		h.v.ClientDisconnected("b1")
		res, err := openAwait(h.v, "a9", "c", ctx.Filename(12), func(ev notify.Event) { got = &ev })
		if err != nil || !res.Awaited {
			t.Errorf("Open = %+v, %v; want an awaited miss", res, err)
		}
	})
	h.eng.Run(0)
	if got == nil {
		t.Fatal("the open was never answered")
	}
	if got.Kind != notify.FileReady || got.Err != "" {
		t.Errorf("the open ended %v %q, want FileReady", got.Kind, got.Err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptWindowOpenJoinsRequeuedJob: the preemption kill hands the
// victim's promises to its requeued job at once, so a demand open that
// lands before the victim's SimEnded finds a pending marker, lifts the
// queued job to demand class (one promotion) and is served by it.
func TestPreemptWindowOpenJoinsRequeuedJob(t *testing.T) {
	ctx := testContext("c")
	h := schedHarness(t, sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, ctx)
	injectAgentPrefetch(t, h, "c", "spec", 9, 12)
	if _, err := h.v.Open("a1", "c", ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	if st := h.v.SchedStats(); st.Preempted != 1 {
		t.Fatalf("Preempted = %d, want 1", st.Preempted)
	}
	cs, _ := h.v.shardOf("c")
	cs.mu.Lock()
	st := cs.step(10)
	cs.mu.Unlock()
	if !st.promised || st.owner != pendingSimID {
		t.Fatalf("step 10 after the kill = %+v, want the requeued job's pending marker", st)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	promoted := h.v.sched.Stats().Promoted
	var got *notify.Event
	if res, err := openAwait(h.v, "a2", "c", ctx.Filename(10), func(ev notify.Event) { got = &ev }); err != nil || !res.Awaited {
		t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
	}
	if p := h.v.sched.Stats().Promoted; p != promoted+1 {
		t.Errorf("Promoted = %d, want %d: the open lifts the requeued job", p, promoted+1)
	}
	h.eng.Run(0)
	if got == nil || got.Kind != notify.FileReady || got.Err != "" {
		t.Fatalf("the open in the kill window ended %+v, want FileReady", got)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKillMidWriteServesLateWaiter: on the wall clock a run killed while
// it writes a step still reports that step (Launcher.Kill). The kill
// already handed the step's promise on — to a new demand run after a
// cancellation, to the requeued job after a preemption — and a waiter
// joined it. The late report settles that promise like any outside
// arrival: the step is resident and the waiter is served, before the
// new producer writes the step itself.
func TestKillMidWriteServesLateWaiter(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  sched.Config
		// kill starts the run of steps 9–12, waits until it writes step
		// 10 and kills it.
		kill func(t *testing.T, v *Virtualizer, ctx *model.Context, writing <-chan struct{})
	}{
		{"cancel", sched.Config{}, func(t *testing.T, v *Virtualizer, ctx *model.Context, writing <-chan struct{}) {
			if _, err := v.GuidedPrefetch("b1", "c", []string{ctx.Filename(10)}); err != nil {
				t.Fatal(err)
			}
			waitClosed(t, writing)
			v.ClientDisconnected("b1")
		}},
		{"preempt", sched.Config{Priorities: true, TotalNodes: 1, Preempt: sched.PreemptYoungest}, func(t *testing.T, v *Virtualizer, ctx *model.Context, writing <-chan struct{}) {
			cs, _ := v.shardOf("c")
			cs.mu.Lock()
			v.launch(cs, 9, 12, 1, sched.Agent, "spec")
			cs.mu.Unlock()
			waitClosed(t, writing)
			if _, err := v.Open("a1", "c", ctx.Filename(1)); err != nil {
				t.Fatal(err)
			}
			if st := v.SchedStats(); st.Preempted != 1 {
				t.Fatalf("Preempted = %d, want 1", st.Preempted)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testContext("c")
			// The killed run's Write of step 10 holds until release; the
			// next producer's holds until the waiter has been served.
			writing, release, reproduce := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var writes atomic.Int32
			l := &simulator.Launcher{TimeScale: 1000, Write: func(_ *model.Context, step int) error {
				if step == 10 {
					if writes.Add(1) == 1 {
						close(writing)
						<-release
					} else {
						<-reproduce
					}
				}
				return nil
			}}
			v := NewScheduled(des.NewWallClock(), l, tc.cfg)
			l.Events = v
			if err := v.AddContext(ctx, "DCL", nil); err != nil {
				t.Fatal(err)
			}
			tc.kill(t, v, ctx, writing)
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			served := make(chan notify.Event, 1)
			if res, err := openAwait(v, "a9", "c", ctx.Filename(10), func(ev notify.Event) { served <- ev }); err != nil || !res.Awaited {
				t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
			}
			close(release)
			select {
			case ev := <-served:
				if ev.Kind != notify.FileReady || ev.Err != "" {
					t.Errorf("the waiter ended %v %q, want FileReady", ev.Kind, ev.Err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the killed run's late step never served the waiter")
			}
			if resident, _, _ := v.FileState("c", ctx.Filename(10)); !resident {
				t.Error("step 10 is not resident after the killed run reported it")
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			close(reproduce)
			l.Wait()
			if err := v.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// waitClosed waits for ch to close, failing the test after 10 s.
func waitClosed(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
}
