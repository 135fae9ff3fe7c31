package dvlib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// TestCallStateMachine drives a call through every order its outcome and
// its Wait can come in — the response before the Wait, the response to
// a parked Wait, the reconnect sweep's typed failure before and after
// the Wait parks, and a response racing the Wait — with the test
// standing in for the read loop. Each Wait returns once, with the
// response or the typed error. A token channel goes back to the pool
// only from a parked Wait woken by a token, so no channel the pool hands
// out afterwards is closed or still holds a token. A record goes back,
// zeroed, only from a Wait that read a response; one the sweep failed
// keeps its state.
func TestCallStateMachine(t *testing.T) {
	nc, peer := net.Pipe()
	t.Cleanup(func() {
		nc.Close()
		peer.Close()
	})
	// Nothing is queued, so await's flush never writes to the pipe.
	c := &Client{calls: netproto.NewPending(), conn: netproto.NewConn(nc)}
	resp := netproto.Response{ID: 1, OK: true, Count: 7}
	typed := fmt.Errorf("dvlib: %s: %w", netproto.OpPing, ErrReconnecting)
	respond := func(p *pendingCall) { p.HandleResponse(&resp) }
	sweep := func(p *pendingCall) { p.answer(typed) }
	type outcome struct {
		resp netproto.Response
		err  error
	}
	for _, tc := range []struct {
		what string
		// order: "before" answers, then waits; "parked" waits until the
		// call is parked, then answers; "racing" does both at once.
		order   string
		answer  func(*pendingCall)
		wantErr error
	}{
		{"answered before its Wait", "before", respond, nil},
		{"answered while parked", "parked", respond, nil},
		{"failed by the sweep before parking", "before", sweep, ErrReconnecting},
		{"failed by the sweep after parking", "parked", sweep, ErrReconnecting},
		{"answered racing its Wait", "racing", respond, nil},
		{"failed by the sweep racing its Wait", "racing", sweep, ErrReconnecting},
	} {
		t.Run(tc.what, func(t *testing.T) {
			for range 200 {
				p := &pendingCall{c: c, env: newEnv(netproto.OpPing, nil)}
				done := make(chan outcome, 1)
				wait := func() {
					var r netproto.Response
					err := c.await(context.Background(), p, &r)
					done <- outcome{r, err}
				}
				switch tc.order {
				case "before":
					tc.answer(p)
					wait()
				case "parked":
					go wait()
					for p.state.Load() != callParked {
						runtime.Gosched()
					}
					tc.answer(p)
				case "racing":
					go wait()
					tc.answer(p)
				}
				var got outcome
				select {
				case got = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("Wait never returned")
				}
				switch {
				case tc.wantErr != nil && !errors.Is(got.err, tc.wantErr):
					t.Fatalf("Wait = %+v, %v; want %v", got.resp, got.err, tc.wantErr)
				case tc.wantErr == nil && (got.err != nil || !reflect.DeepEqual(got.resp, resp)):
					t.Fatalf("Wait = %+v, %v; want %+v", got.resp, got.err, resp)
				case tc.wantErr == nil && !recycled(p):
					t.Fatalf("a call answered normally was not recycled: op %q, state %d", p.env.Op, p.state.Load())
				case tc.wantErr != nil && p.state.Load() != callAnswered:
					t.Fatalf("a call failed by the sweep left in state %d", p.state.Load())
				}
			}
			var drawn []chan struct{}
			for range 64 {
				ch := tokens.Get().(chan struct{})
				select {
				case _, open := <-ch:
					t.Fatalf("the pool handed out a channel that is closed (%v) or holds a token", !open)
				default:
				}
				drawn = append(drawn, ch)
			}
			for _, ch := range drawn {
				tokens.Put(ch)
			}
			checkRecords(t, nil)
		})
	}
}

// recycled reports whether p was zeroed on its way back to the pool.
func recycled(p *pendingCall) bool {
	return p.c == nil && p.env.Op == "" && p.err == nil && p.ch == nil && p.state.Load() == callPending
}

// checkRecords draws records from the pool and fails the test when one
// is in kept, or still holds a call; then it puts them back.
func checkRecords(t *testing.T, kept map[*pendingCall]bool) {
	t.Helper()
	var drawn []*pendingCall
	for range 64 {
		p := records.Get().(*pendingCall)
		switch {
		case kept[p]:
			t.Fatal("the pool handed out a record that never read a normal answer")
		case !recycled(p):
			t.Fatalf("the pool handed out a record still holding a call: op %q, state %d", p.env.Op, p.state.Load())
		}
		drawn = append(drawn, p)
	}
	for _, p := range drawn {
		records.Put(p)
	}
}

// A second Wait on a pipelined call fails with ErrWaited, whether it
// follows the first or races it: exactly one Wait gets the answer, and
// the record the first recycled never leaks another call's answer.
func TestSecondWaitRefused(t *testing.T) {
	addr := fakeDV(t, answerByName)
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	for step := 2; step <= 40; step += 2 {
		oc, err := ctx.OpenAsync(ctx.Filename(step))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := ctx.ReleaseAsync(ctx.Filename(step))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := oc.Wait(); err != nil || int(res.EstWait) != step {
			t.Fatalf("open of step %d answered %+v, %v", step, res, err)
		}
		// The next window may reuse the first Wait's record.
		window(t, ctx, 100+step)
		if res, err := oc.Wait(); !errors.Is(err, ErrWaited) || res != (OpenResult{}) {
			t.Fatalf("second Wait of the open of step %d = %+v, %v; want ErrWaited", step, res, err)
		}
		// Two Waits at once on the release: one answer, one ErrWaited.
		errs := make(chan error, 2)
		for range 2 {
			go func() { errs <- rc.Wait() }()
		}
		e1, e2 := <-errs, <-errs
		if e1 != nil {
			e1, e2 = e2, e1
		}
		if e1 != nil || !errors.Is(e2, ErrWaited) {
			t.Fatalf("racing Waits of the release of step %d = %v, %v; want nil and ErrWaited", step, e1, e2)
		}
		if err := rc.Wait(); !errors.Is(err, ErrWaited) {
			t.Fatalf("third Wait of the release of step %d = %v; want ErrWaited", step, err)
		}
	}
	var zero ReleaseCall
	if err := zero.Wait(); !errors.Is(err, ErrWaited) {
		t.Fatalf("Wait on a zero ReleaseCall = %v; want ErrWaited", err)
	}
	checkRecords(t, nil)
}

// A call abandoned by its context keeps its record: the read loop may
// still deliver its answer there, so the pool never hands it out again,
// whether the late answer was dropped as unknown or landed in the
// record.
func TestCanceledCallKeepsItsRecord(t *testing.T) {
	// The answer to an est-wait is withheld until the test asks for it,
	// and a bitrep is never answered.
	held := make(chan func(), 1)
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		if req.Op == netproto.OpEstWait {
			held <- func() { send(netproto.Response{ID: req.ID, OK: true, EstWaitNs: 1 << 40}) }
			return
		}
		answerByName(req, send)
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	kept := map[*pendingCall]bool{}
	canceled, late := 0, 0
	for round := range 50 {
		p, err := c.start(ctx.fileEnv(netproto.OpEstWait, ctx.Filename(1)))
		if err != nil {
			t.Fatal(err)
		}
		cx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() {
			got <- c.await(cx, p, nil)
		}()
		answer := <-held
		// Cancel and answer together: the answer wins some rounds, is
		// dropped as unknown in most, and may land in the abandoned
		// record (the loop below lands it there on purpose).
		sent := make(chan struct{})
		go func() {
			answer()
			close(sent)
		}()
		cancel()
		err = <-got
		<-sent
		// The daemon answers in order, so once this answer is read the
		// late one has been delivered or dropped.
		if _, err := c.Init("c"); err != nil {
			t.Fatal(err)
		}
		switch {
		case err == nil:
			continue // answered before the cancel: recycled normally
		case !errors.Is(err, context.Canceled):
			t.Fatalf("round %d: %v", round, err)
		case recycled(p):
			t.Fatalf("round %d: the abandoned record went back to the pool", round)
		}
		if canceled++; p.state.Load() == callAnswered {
			late++
		}
		kept[p] = true
		checkRecords(t, kept)
	}
	// The read loop took the entry before the cancel withdrew it: the
	// answer lands in the record after its caller gave up.
	for range 50 {
		p, err := c.start(ctx.fileEnv(netproto.OpBitrep, ctx.Filename(1)))
		if err != nil {
			t.Fatal(err)
		}
		cx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.await(cx, p, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("await under a canceled context = %v", err)
		}
		p.HandleResponse(&netproto.Response{ID: p.id, OK: true, Flag: true, Done: true})
		if recycled(p) || !p.resp.Flag {
			t.Fatal("the late answer did not stay in the abandoned record")
		}
		kept[p] = true
		checkRecords(t, kept)
	}
	t.Logf("%d of 50 rounds canceled; %d of those records took a late answer off the wire", canceled, late)
	for base := 1; base <= 500; base += 16 {
		window(t, ctx, base)
	}
	checkRecords(t, kept)
}

// A call the reconnect sweep fails keeps its record, parked or not when
// the sweep finds it: the sweep took its table entry, so no answer
// reaches it, and its channel may be closed.
func TestSweptCallKeepsItsRecord(t *testing.T) {
	// A drain cuts the connection it arrives on.
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		if req.Op == netproto.OpDrain {
			kill()
			return
		}
		answerByName(req, send)
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
	kept := map[*pendingCall]bool{}
	for round := range 10 {
		p, err := c.start(newEnv(netproto.OpDrain, netproto.CtxBody{Context: ctx.name}))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.await(context.Background(), p, nil); !errors.Is(err, ErrReconnecting) {
			t.Fatalf("round %d: drain cut by the reset answered %v, want ErrReconnecting", round, err)
		}
		if recycled(p) || p.state.Load() != callAnswered || p.err == nil {
			t.Fatalf("round %d: the swept record went back to the pool", round)
		}
		kept[p] = true
		checkRecords(t, kept)
		window(t, ctx, 100+16*round)
	}
	checkRecords(t, kept)
}

// TestAnsweredWaitDoesNotFlush: a Wait flushes the queued frames only
// when it has to park — a call already answered had its frame sent, so
// its Wait takes no lock for an empty write buffer. Over a pipe whose
// far end counts the request frames it reads, a Wait on an answered
// call leaves a frame queued after it unwritten, and the next Wait,
// which has to park, flushes it.
func TestAnsweredWaitDoesNotFlush(t *testing.T) {
	nc, peer := net.Pipe()
	t.Cleanup(func() {
		nc.Close()
		peer.Close()
	})
	c := &Client{calls: netproto.NewPending(), conn: netproto.NewConn(nc)}
	go c.calls.Serve(c.conn, nil)
	frames := make(chan uint64, 4) // the IDs of the request frames the peer read
	go func() {
		for {
			var env netproto.Envelope
			if netproto.Binary.DecodeFrame(peer, &env) != nil {
				return
			}
			frames <- env.ID
		}
	}()
	answer := func(id uint64) {
		if err := netproto.Binary.EncodeFrame(peer, netproto.Response{ID: id, OK: true, Available: true, Done: true}); err != nil {
			t.Error(err)
		}
	}
	ctx := &Context{c: c, name: "clim"}
	first, err := ctx.OpenAsync("clim_out_00000001.nc")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	answer(<-frames)
	for first.p.Load().state.Load() != callAnswered {
		runtime.Gosched()
	}
	second, err := ctx.OpenAsync("clim_out_00000002.nc")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := first.Wait(); err != nil || !res.Available {
		t.Fatalf("answered open = %+v, %v", res, err)
	}
	select {
	case id := <-frames:
		t.Fatalf("the Wait of an answered call flushed request %d", id)
	case <-time.After(50 * time.Millisecond):
	}
	go func() { answer(<-frames) }()
	if res, err := second.Wait(); err != nil || !res.Available {
		t.Fatalf("parked open = %+v, %v", res, err)
	}
}
