package server

import (
	"fmt"
	"runtime"
	"testing"

	"simfs/internal/dvlib"
	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// onlySession returns the daemon's one live session.
func onlySession(t *testing.T, srv *Server) *session {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.sessions) != 1 {
		t.Fatalf("%d live sessions, want 1", len(srv.sessions))
	}
	for _, sess := range srv.sessions {
		return sess
	}
	return nil
}

// parked reports what a session still keeps for later: notices that
// beat their open's first answer, and streams.
func parked(sess *session) (early, watches int) {
	sess.pusher.mu.Lock()
	defer sess.pusher.mu.Unlock()
	return len(sess.pusher.early), len(sess.pusher.watches)
}

// A pending stream costs the daemon no goroutine of its own: 64 of them
// on one session wait in the hub, and their frames go out through the
// session's one pusher.
func TestStreamsShareThePusher(t *testing.T) {
	fx := newWatchFixture(t, nil)
	fx.hold(5)
	fx.promise(netproto.OpSubscribe, 6) // one simulation promises steps 5–8
	fx.settled()
	before := runtime.NumGoroutine()
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = fx.send(netproto.OpSubscribe, filesBody(5+i%4))
	}
	fx.expect("pending", fx.settled(), 0)
	if grown := runtime.NumGoroutine() - before; grown > 2 {
		t.Errorf("64 pending streams started %d goroutines, want at most 2", grown)
	}
	fx.release()
	frames := map[uint64][]netproto.Response{}
	for ended := 0; ended < len(ids); {
		resp, err := fx.read()
		if err != nil {
			t.Fatalf("after %d streams ended: %v", ended, err)
		}
		frames[resp.ID] = append(frames[resp.ID], resp)
		if resp.Terminal() {
			ended++
		}
	}
	for i, id := range ids {
		fx.expect(fmt.Sprintf("stream %d", i), frames[id], id, fmt.Sprintf("%02d ok ready", 5+i%4), "ok done")
	}
}

// An unsubscribed stream leaves nothing behind: no waiter on any topic,
// nothing that counts for Waiting, no entry in the session's tables —
// also when its file's event was taken before the withdrawal and is
// delivered after it, which then sends and keeps nothing.
func TestStreamWithdrawal(t *testing.T) {
	topic := notify.Topic{Context: "clim", Step: 40}
	unsubscribe := func(fx *watchFixture, id uint64) {
		fx.t.Helper()
		other, ack := fx.until(fx.send(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: id}),
			func(netproto.Response) bool { return true })
		fx.expect("before the ack", other, id)
		if !ack.OK {
			fx.t.Fatalf("unsubscribe: %+v", ack)
		}
	}
	empty := func(fx *watchFixture) {
		fx.t.Helper()
		hub := fx.st.V.Hub()
		if ws := hub.Waiters(topic.Context); len(ws) != 0 {
			fx.t.Errorf("hub keeps %d waiters", len(ws))
		}
		if hub.Waiting(topic) {
			fx.t.Error("the withdrawn stream still counts for Waiting")
		}
		if early, watches := parked(onlySession(fx.t, fx.st.Server)); early != 0 || watches != 0 {
			fx.t.Errorf("session keeps %d early notices and %d streams", early, watches)
		}
	}

	t.Run("never produced", func(t *testing.T) {
		fx := newWatchFixture(t, nil)
		for range 1000 {
			unsubscribe(fx, fx.send(netproto.OpFedWatch, filesBody(40)))
		}
		fx.expect("after the last ack", fx.settled(), 0)
		empty(fx)
	})

	t.Run("resolved between take and withdrawal", func(t *testing.T) {
		fx := newWatchFixture(t, nil)
		hub := fx.st.V.Hub()
		for range 100 {
			id := fx.send(netproto.OpFedWatch, filesBody(40))
			fx.expect("before the take", fx.settled(), id)
			ws := hub.Take(topic, nil) // the step resolves...
			if len(ws) != 1 {
				t.Fatalf("took %d waiters, want the stream's one", len(ws))
			}
			unsubscribe(fx, id) // ...the stream is withdrawn...
			if n := hub.Deliver(notify.Event{Kind: notify.FileReady}, ws); n != 1 {
				t.Fatalf("Deliver woke %d, want the stream's callback", n)
			}
			// ...and the event it was owed is sent nowhere.
			fx.expect("after the ack", fx.settled(), id)
			empty(fx)
		}
	})
}

// TestStreamAllocCeiling pins what a one-file subscribe on a live binary
// session allocates end to end when its file is still being produced:
// the loop opens a missing file, subscribes to it, waits for the
// subscribe's ready frame and Done, then for the open's notice, and
// closes the file. AllocsPerRun counts process-wide mallocs, client and
// daemon both. The ceiling is the loop's count when each stream had a
// channel subscription and a goroutine of its own (35; the same loop
// without the subscribe counts 12).
func TestStreamAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceiling is measured without the race detector")
	}
	const ceiling = 35.0

	gate := make(chan struct{})
	mctx, addr := missDaemon(t, gate)
	c, err := dvlib.Dial(addr, "ceiling")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init(mctx.Name)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	loop := func() {
		file := ctx.Filename(8*(next%64) + 5)
		next++
		if res, err := ctx.Open(file); err != nil || res.Available {
			t.Fatalf("open %s = %+v, %v; want a miss", file, res, err)
		}
		w, err := ctx.Watch(file)
		if err != nil {
			t.Fatal(err)
		}
		// Answered in order: once this returns the stream is registered,
		// and the gate keeps its file from being produced until now.
		if _, err := ctx.EstWait(file); err != nil {
			t.Fatal(err)
		}
		for range mctx.Grid.DeltaR { // the interval's steps
			gate <- struct{}{}
		}
		n := 0
		for ev := range w.Events() {
			n++
			if (n == 1 && (ev.File != file || !ev.Ready || ev.Done)) || (n == 2 && !ev.Done) {
				t.Fatalf("stream event %d: %+v, want the file ready, then Done", n, ev)
			}
		}
		if n != 2 {
			t.Fatalf("stream ended after %d events, want 2", n)
		}
		if err := ctx.WaitAvailable(file); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Close(file); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		loop() // warm the pools, the maps and the cache up
	}
	perLoop := testing.AllocsPerRun(200, loop)
	t.Logf("%.2f allocations per missed open, one-file subscribe, wait and close", perLoop)
	if perLoop > ceiling {
		t.Errorf("%.2f allocations per loop, ceiling %.0f", perLoop, ceiling)
	}
}
