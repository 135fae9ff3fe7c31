package dvlib

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/netproto"
)

// fastReconnect keeps test reconnects snappy and deterministic.
var fastReconnect = ReconnectConfig{
	BaseBackoff: 5 * time.Millisecond,
	MaxBackoff:  50 * time.Millisecond,
	MaxElapsed:  5 * time.Second,
	Seed:        1,
}

// scriptedDV is fakeDV with restarts: the listener outlives individual
// connections, the handler learns which connection (1-based ordinal) a
// request arrived on, and may kill the connection mid-script. onConn, if
// set, runs at every accept.
func scriptedDV(t *testing.T, onConn func(connNo int, kill func()),
	handler func(connNo int, req fakeReq, send func(netproto.Response), kill func())) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var connNo int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			no := int(atomic.AddInt32(&connNo, 1))
			go func(conn net.Conn, no int) {
				defer conn.Close()
				var wmu sync.Mutex
				send := func(resp netproto.Response) {
					wmu.Lock()
					defer wmu.Unlock()
					netproto.Binary.EncodeFrame(conn, resp)
				}
				kill := func() { conn.Close() }
				if onConn != nil {
					onConn(no, kill)
				}
				for {
					var env netproto.Envelope
					if err := netproto.Binary.DecodeFrame(conn, &env); err != nil {
						return
					}
					if env.Op == netproto.OpHello {
						send(grantHello(env.ID))
						continue
					}
					req := decodeFakeReq(env)
					handler(no, req, send, kill)
				}
			}(conn, no)
		}
	}()
	return ln.Addr().String()
}

func decodeFakeReq(env netproto.Envelope) fakeReq {
	req := fakeReq{ID: env.ID, Op: env.Op}
	var b netproto.FilesBody
	if env.Decode(&b) == nil {
		req.Context = b.Context
		req.Files = b.Files
	}
	var fb netproto.FileBody
	if env.Decode(&fb) == nil && fb.File != "" {
		req.Context = fb.Context
		req.Files = append(req.Files, fb.File)
	}
	return req
}

// fakeInit answers OpContextInfo so Context handles work against the
// scripted daemon.
func fakeInfo(id uint64) netproto.Response {
	return netproto.Response{ID: id, OK: true, Info: &netproto.ContextInfo{
		Name: "c", FilePrefix: "c_out_", FileSuffix: ".nc",
		DeltaD: 1, DeltaR: 4, Timesteps: 100,
	}}
}

// An open whose connection dies before the answer is replayed
// transparently: the caller never sees the reset.
func TestReconnectReplaysIdempotentCall(t *testing.T) {
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			if connNo == 1 {
				kill() // the request is in flight when the connection dies
				return
			}
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Open(ctx.Filename(3))
	if err != nil {
		t.Fatalf("open across a reset = %v, want transparent replay", err)
	}
	if !res.Available {
		t.Errorf("replayed open = %+v", res)
	}
}

// A release in flight at the reset is replayed, behind the ledger's
// re-open of the file it releases: the fresh session holds the
// reference the replay drops, whether or not the first copy landed.
func TestReconnectReplaysRelease(t *testing.T) {
	var mu sync.Mutex
	var second []string // the ops the fresh connection saw, in order
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		if connNo > 1 {
			mu.Lock()
			second = append(second, req.Op)
			mu.Unlock()
		}
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpRelease:
			if connNo == 1 {
				kill()
				return
			}
			send(netproto.Response{ID: req.ID, OK: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(3)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Release(file); err != nil {
		t.Fatalf("in-flight release across a reset = %v, want the replay's answer", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{netproto.OpOpen, netproto.OpRelease}; !slices.Equal(second, want) {
		t.Errorf("the fresh connection saw %v, want %v", second, want)
	}
	if n := heldCopy(c, "c")[file]; n != 0 {
		t.Errorf("ledger holds %s %d times after its release, want 0", file, n)
	}
}

// A control-plane mutation in flight at the reset fails with the typed
// ErrReconnecting instead of being replayed: the client cannot know
// whether the daemon processed it, and a replay could undo another
// client's change made since.
func TestReconnectFailsControlPlaneTyped(t *testing.T) {
	var drains atomic.Int32 // drains the fresh connection saw
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpDrain:
			if connNo == 1 {
				kill()
				return
			}
			drains.Add(1)
			send(netproto.Response{ID: req.ID, OK: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(ctx.Filename(3)); err != nil {
		t.Fatal(err)
	}
	err = c.Admin().Drain(context.Background(), "c")
	if !errors.Is(err, ErrReconnecting) {
		t.Fatalf("in-flight drain across a reset = %v, want ErrReconnecting", err)
	}
	if n := drains.Load(); n != 0 {
		t.Fatalf("the cut drain was replayed %d times", n)
	}
	// The retry goes back on the wire and succeeds on the new connection.
	if err := c.Admin().Drain(context.Background(), "c"); err != nil {
		t.Fatalf("retried drain = %v", err)
	}
}

// The reference ledger is replayed after a reconnect: every held file is
// re-opened on the new connection, rebuilding the daemon-side reference
// state the disconnect cleanup released.
func TestReconnectRestoresHeldReferences(t *testing.T) {
	var mu sync.Mutex
	reopened := map[string]int{}
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			if connNo > 1 {
				mu.Lock()
				reopened[req.Files[0]]++
				mu.Unlock()
			}
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpStats:
			if connNo == 1 {
				kill()
				return
			}
			send(netproto.Response{ID: req.ID, OK: true, Stats: &metrics.Report{}})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := ctx.Filename(1), ctx.Filename(2)
	if _, err := ctx.Open(f1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(f2); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(f2); err != nil { // two references on f2
		t.Fatal(err)
	}
	if _, err := ctx.Stats(); err != nil { // rides through the reset
		t.Fatalf("stats across reset = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if reopened[f1] != 1 || reopened[f2] != 2 {
		t.Errorf("ledger replay re-opened %v, want {%s:1, %s:2}", reopened, f1, f2)
	}
}

// Watches survive the reset: the unresolved files are re-subscribed on
// the new connection and files reported before the reset are not
// reported twice.
func TestReconnectResubscribesWatch(t *testing.T) {
	var resub atomic.Int32
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpSubscribe:
			if connNo == 1 {
				// Resolve the first file, then die before the second.
				send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: req.Files[0]})
				time.Sleep(10 * time.Millisecond) // let the frame land first
				kill()
				return
			}
			resub.Store(int32(len(req.Files)))
			for _, f := range req.Files {
				send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: f})
			}
			send(netproto.Response{ID: req.ID, OK: true, Done: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := ctx.Filename(1), ctx.Filename(2)
	w, err := ctx.Watch(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	done := false
	for ev := range w.Events() {
		if ev.Err != "" {
			t.Fatalf("watch error across reset: %s", ev.Err)
		}
		if ev.File != "" {
			got[ev.File]++
		}
		if ev.Done {
			done = true
		}
	}
	if !done || got[f1] != 1 || got[f2] != 1 {
		t.Errorf("watch events = %v (done=%v), want each file exactly once", got, done)
	}
	if n := resub.Load(); n != 1 {
		t.Errorf("re-subscription carried %d files, want only the unresolved one", n)
	}
}

// An acquire in flight at the reset is re-armed for every file, those
// reported before the reset too: its references died with the old
// session, and the fresh one takes them again. Each file is reported
// once, and the ledger counts the references once the acquire ends.
func TestReconnectRearmsInflightAcquire(t *testing.T) {
	var rearmed atomic.Int32 // files the re-armed acquire carried
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpAcquire:
			if connNo == 1 {
				// Resolve the first file, then die before the second.
				send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: req.Files[0]})
				time.Sleep(10 * time.Millisecond) // let the frame land first
				kill()
				return
			}
			rearmed.Store(int32(len(req.Files)))
			for _, f := range req.Files {
				send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: f})
			}
			send(netproto.Response{ID: req.ID, OK: true, Done: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := ctx.Filename(1), ctx.Filename(2)
	req, err := ctx.AcquireNB(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := req.Wait()
	if err != nil || !st.Ready {
		t.Fatalf("in-flight acquire across reset = %+v, %v; want ready", st, err)
	}
	if n := rearmed.Load(); n != 2 {
		t.Errorf("the re-armed acquire carried %d files, want both", n)
	}
	seen := map[string]int{}
	for ev := range req.l.ch {
		seen[ev.File]++
	}
	if seen[f1] != 1 || seen[f2] != 1 {
		t.Errorf("acquire events = %v, want each file exactly once", seen)
	}
	if got := heldCopy(c, "c"); got[f1] != 1 || got[f2] != 1 {
		t.Errorf("ledger = %v, want one reference on each file", got)
	}
}

// An acquire that ends on a per-file failure keeps every reference on
// the daemon (only a refusal of the whole stream rolls them back), so
// the ledger counts them: a reconnect re-opens them, and a Cancel drops
// exactly what was counted.
func TestReconnectRestoresFailedAcquireReferences(t *testing.T) {
	var mu sync.Mutex
	reopened := map[string]int{}
	var killCurrent func()
	addr := scriptedDV(t, func(_ int, kill func()) {
		mu.Lock()
		killCurrent = kill
		mu.Unlock()
	}, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpPing:
			send(netproto.Response{ID: req.ID, OK: true})
		case netproto.OpOpen:
			mu.Lock()
			reopened[req.Files[0]]++
			mu.Unlock()
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpAcquire:
			send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: req.Files[0]})
			send(netproto.Response{ID: req.ID, Code: netproto.CodeFailed, Err: "boom",
				File: req.Files[1], Done: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := ctx.Filename(1), ctx.Filename(2)
	req, err := ctx.AcquireNB(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := req.Wait(); err != nil || st.Ready || st.Err != "boom" {
		t.Fatalf("acquire = %+v, %v; want the per-file failure", st, err)
	}
	mu.Lock()
	kill := killCurrent
	mu.Unlock()
	kill()
	// The ping waits out the reconnect: it is replayed behind the
	// ledger's opens, or sent once they went out.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if reopened[f1] != 1 || reopened[f2] != 1 {
		t.Errorf("the reconnect re-opened %v, want each acquired file once", reopened)
	}
	mu.Unlock()
	if err := req.Cancel(); err != nil {
		t.Fatal(err)
	}
	if got := heldCopy(c, "c"); len(got) != 0 {
		t.Errorf("ledger after Cancel = %v, want empty", got)
	}
}

// A missed open's notice cut by the reset is not replayed: WaitAvailable
// learns the notice is lost and subscribes to the file on the fresh
// connection instead, which reports it ready.
func TestReconnectCutNoticeFallsBackToSubscribe(t *testing.T) {
	var subscribed atomic.Int32
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			if connNo == 1 {
				// The miss, then the reset before its notice.
				send(netproto.Response{ID: req.ID, OK: true, EstWaitNs: 1000})
				time.Sleep(10 * time.Millisecond) // let the frame land first
				kill()
				return
			}
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpRelease:
			send(netproto.Response{ID: req.ID, OK: true})
		case netproto.OpSubscribe:
			subscribed.Add(1)
			for _, f := range req.Files {
				send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: f})
			}
			send(netproto.Response{ID: req.ID, OK: true, Done: true})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(3)
	if res, err := ctx.Open(file); err != nil || res.Available {
		t.Fatalf("open = %+v, %v; want a miss", res, err)
	}
	if err := ctx.WaitAvailable(file); err != nil {
		t.Fatalf("wait across a reset = %v, want ready", err)
	}
	if n := subscribed.Load(); n != 1 {
		t.Errorf("the wait subscribed %d times, want once", n)
	}
	if err := ctx.Close(file); err != nil {
		t.Fatal(err)
	}
}

// A batch of pipelined opens queued (but not yet flushed) when the
// connection dies is replayed wholesale: every Wait succeeds against the
// new connection.
func TestReconnectReplaysBatchedWriteBuffer(t *testing.T) {
	killed := make(chan struct{})
	addr := scriptedDV(t, func(connNo int, kill func()) {
		if connNo == 1 {
			go func() {
				time.Sleep(20 * time.Millisecond)
				kill()
				close(killed)
			}()
		}
	}, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			send(netproto.Response{ID: req.ID, OK: true, Available: connNo > 1, Done: connNo > 1})
		}
	})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	<-killed // the connection is already dead when the batch is queued
	var calls []*OpenCall
	for step := 1; step <= 3; step++ {
		oc, err := ctx.OpenAsync(ctx.Filename(step))
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, oc)
	}
	for i, oc := range calls {
		res, err := oc.Wait()
		if err != nil {
			t.Fatalf("batched open %d across restart = %v", i, err)
		}
		if !res.Available {
			t.Errorf("batched open %d answered by the dead connection?", i)
		}
	}
}

// When the backoff budget runs out the client dies for good: pending
// calls fail and later calls report the terminal error.
func TestReconnectGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var env netproto.Envelope
		netproto.Binary.DecodeFrame(conn, &env)
		netproto.Binary.EncodeFrame(conn, grantHello(env.ID))
		accepted <- conn
	}()
	cfg := fastReconnect
	cfg.MaxElapsed = 50 * time.Millisecond
	c, err := Dial(addr, "unit", WithReconnect(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill the daemon for good: close the live connection and the
	// listener so every redial is refused.
	(<-accepted).Close()
	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(); err != nil && !errors.Is(err, ErrReconnecting) {
			return // terminal: the client gave up
		}
		if time.Now().After(deadline) {
			t.Fatal("client never gave up reconnecting")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Cancel races the reconnect's re-arm of the same watch: the connection
// is cut while another goroutine cancels. Whichever wins, the watch ends
// with its Done event, and the stream ID the re-arm rewrites is read
// under the client's lock (Cancel used to read it bare: run with -race).
func TestReconnectWatchCancelRace(t *testing.T) {
	var mu sync.Mutex
	var killCurrent func()
	addr := scriptedDV(t,
		func(_ int, kill func()) {
			mu.Lock()
			killCurrent = kill
			mu.Unlock()
		},
		func(_ int, req fakeReq, send func(netproto.Response), _ func()) {
			switch req.Op {
			case netproto.OpContextInfo:
				send(fakeInfo(req.ID))
			case netproto.OpPing, netproto.OpUnsubscribe:
				send(netproto.Response{ID: req.ID, OK: true})
			case netproto.OpSubscribe:
				// Never resolves: only Cancel ends the watch.
			}
		})
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		// The ping is answered by the live connection, so killCurrent is
		// that connection's.
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		w, err := ctx.Watch(ctx.Filename(1))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		kill := killCurrent
		mu.Unlock()
		canceled := make(chan struct{})
		go func() {
			defer close(canceled)
			// The unsubscribe may be in flight at the cut and fail typed;
			// the local teardown below is what must hold either way.
			_ = w.Cancel()
		}()
		kill()
		<-canceled
		timeout := time.After(5 * time.Second)
		var last WatchEvent
	drain:
		for {
			select {
			case ev, ok := <-w.Events():
				if !ok {
					break drain
				}
				last = ev
			case <-timeout:
				t.Fatalf("round %d: canceled watch never closed its events", round)
			}
		}
		if !last.Done {
			t.Fatalf("round %d: watch closed on %+v, want a Done event", round, last)
		}
	}
}

// A jitter above 1 would let a redial draw a negative sleep, that is no
// backoff at all: withDefaults clamps it to [0, 1].
func TestReconnectConfigClampsJitter(t *testing.T) {
	for in, want := range map[float64]float64{1.5: 1, 1: 1, 0.2: 0.2, 0: 0, -1: 0} {
		if got := (ReconnectConfig{Jitter: in}).withDefaults().Jitter; got != want {
			t.Errorf("Jitter %v → %v, want %v", in, got, want)
		}
	}
}
