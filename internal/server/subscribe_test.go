package server

import (
	"errors"
	"testing"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/netproto"
)

// TestWatchOverTCP exercises the subscription op end to end: a watch on
// a mix of resident and in-production files resolves every file and then
// completes.
func TestWatchOverTCP(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}

	// Make one file resident, start production of another.
	warm := ctx.Filename(3)
	if _, err := ctx.Open(warm); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitAvailable(warm); err != nil {
		t.Fatal(err)
	}
	cold := ctx.Filename(20)
	if _, err := ctx.Open(cold); err != nil {
		t.Fatal(err)
	}

	w, err := ctx.Watch(warm, cold)
	if err != nil {
		t.Fatal(err)
	}
	ready := map[string]bool{}
	sawDone := false
	for ev := range w.Events() {
		if ev.Err != "" {
			t.Fatalf("watch event error: %s", ev.Err)
		}
		if ev.Done {
			sawDone = true
			continue
		}
		if !ev.Ready {
			t.Fatalf("unexpected event %+v", ev)
		}
		ready[ev.File] = true
	}
	if !sawDone || !ready[warm] || !ready[cold] {
		t.Errorf("done=%v ready=%v, want both files ready and a done event", sawDone, ready)
	}
	for _, f := range []string{warm, cold} {
		if err := ctx.Release(f); err != nil {
			t.Error(err)
		}
	}
}

// TestWatchUnproducedFileResolvesWithError: a watch on a file nobody is
// producing must not hang — it resolves with a per-file error.
func TestWatchUnproducedFileResolvesWithError(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ctx.Watch(ctx.Filename(40))
	if err != nil {
		t.Fatal(err)
	}
	var fileEv dvlib.WatchEvent
	for ev := range w.Events() {
		if ev.File != "" {
			fileEv = ev
		}
	}
	if fileEv.Err == "" || fileEv.Code != netproto.CodeNotProduced {
		t.Errorf("watch of an unproduced file resolved with %+v, want a not_produced error event", fileEv)
	}
	// WaitAvailable and Read surface the same condition as a coded error:
	// a reader can tell "nobody is producing this" from a failed
	// re-simulation.
	err = ctx.WaitAvailable(ctx.Filename(41))
	if code := dvlib.ErrCodeOf(err); code != netproto.CodeNotProduced {
		t.Errorf("WaitAvailable without a prior open = %v (code %q), want not_produced", err, code)
	}
	if _, err := ctx.Read(ctx.Filename(41)); dvlib.ErrCodeOf(err) != netproto.CodeNotProduced {
		t.Errorf("Read without a prior open = %v, want not_produced", err)
	}
	// A stream refused as a whole carries its code too.
	if _, err := ctx.Read("clim_out_41.nc"); dvlib.ErrCodeOf(err) != netproto.CodeBadRequest {
		t.Errorf("Read of a non-canonical name = %v, want bad_request", err)
	}
}

// TestWaitAvailableCarriesFailureCode: a reader blocked on a file whose
// re-simulation dies gets the daemon's failed code, not a bare string.
func TestWaitAvailableCarriesFailureCode(t *testing.T) {
	_, addr := testStackWith(t, func(st *Stack) {
		st.Launcher.FailAt = func(_ string, first, _ int) int { return first }
	})
	c, err := dvlib.Dial(addr, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(6)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	err = ctx.WaitAvailable(file)
	var derr *dvlib.Error
	// The failure is the open's own notice: no subscribe was sent.
	if !errors.As(err, &derr) || derr.Code != netproto.CodeFailed || derr.Op != netproto.OpOpen {
		t.Errorf("WaitAvailable on a crashed re-simulation = %v, want an open *Error coded failed", err)
	}
	if err := ctx.Release(file); err != nil {
		t.Error(err)
	}
}

// TestWatchCancel verifies OpUnsubscribe: after Cancel the event channel
// closes promptly even though the watched file is never produced.
func TestWatchCancel(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	// Reference a far-future file with a long production queue ahead of
	// it so the watch outlives the Cancel.
	cold := ctx.Filename(60)
	if _, err := ctx.Open(cold); err != nil {
		t.Fatal(err)
	}
	w, err := ctx.Watch(cold)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cancel(); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-w.Events():
		for ok && !ev.Done {
			ev, ok = <-w.Events()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("events channel did not close after Cancel")
	}
	if err := ctx.Release(cold); err != nil {
		t.Error(err)
	}
}

// TestStatsCarryLockCounters: the wire stats now include the shard-lock
// counters of the sharded Virtualizer.
func TestStatsCarryLockCounters(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(2)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitAvailable(file); err != nil {
		t.Fatal(err)
	}
	st, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LockAcquisitions == 0 {
		t.Errorf("stats carry no lock acquisitions: %+v", st)
	}
	if st.LockContended > st.LockAcquisitions {
		t.Errorf("contended > acquisitions: %+v", st)
	}
}
