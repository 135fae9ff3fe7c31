package dvlib

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// Call handles wake their waiter through a recycled one-slot channel. A
// channel may go back to the pool only from the await that drained it;
// these tests drive the two ways a call ends without that — abandoned by
// its context, failed by a reconnect — and the one that ends it through
// the normal token path without a daemon (die), then check that no later
// call wakes on a stray token or sees a response that is not its own.
// Run them under -race.

// stepOf recovers the step a scripted-daemon file name encodes.
func stepOf(file string) int64 {
	var step int64
	fmt.Sscanf(file, "c_out_%d.nc", &step)
	return step
}

// answerByName is the scripted daemon's data plane: an open is answered
// with its own step as the estimated wait, a release of an odd step with
// an error naming the file — so every response identifies its request.
func answerByName(req fakeReq, send func(netproto.Response)) {
	switch req.Op {
	case netproto.OpContextInfo:
		send(fakeInfo(req.ID))
	case netproto.OpOpen:
		send(netproto.Response{ID: req.ID, OK: true, Available: true, EstWaitNs: stepOf(req.Files[0]), Done: true})
	case netproto.OpRelease:
		if stepOf(req.Files[0])%2 == 1 {
			send(netproto.Response{ID: req.ID, Code: netproto.CodeBadRequest, Err: "odd " + req.Files[0]})
			return
		}
		send(netproto.Response{ID: req.ID, OK: true})
	}
}

// window pipelines 16 opens and 16 releases of the steps from base on and
// checks that every Wait returns its own call's answer, within a
// deadline.
func window(t *testing.T, ctx *Context, base int) {
	t.Helper()
	const n = 16
	var opens [n]*OpenCall
	var rels [n]*ReleaseCall
	var err error
	for i := range opens {
		if opens[i], err = ctx.OpenAsync(ctx.Filename(base + i)); err != nil {
			t.Fatal(err)
		}
		if rels[i], err = ctx.ReleaseAsync(ctx.Filename(base + i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range opens {
			res, err := opens[i].Wait()
			if err != nil || int(res.EstWait) != base+i {
				t.Errorf("open of step %d answered %+v, %v", base+i, res, err)
			}
			err = rels[i].Wait()
			if odd := (base+i)%2 == 1; odd != (err != nil) ||
				(odd && !strings.Contains(err.Error(), "odd "+ctx.Filename(base+i))) {
				t.Errorf("release of step %d answered %v", base+i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("window at step %d: a Wait still blocked after 10 s", base)
	}
}

// (a) A call abandoned by its context never returns its channel, whether
// the late response finds the table entry gone or is being delivered
// while the caller gives up.
func TestCanceledCallKeepsItsChannel(t *testing.T) {
	// The answer to an est-wait is withheld until the test asks for it.
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
	for round := 0; round < 50; round++ {
		cx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() {
			_, err := c.roundTrip(cx, ctx.fileEnv(netproto.OpEstWait, ctx.Filename(1)))
			got <- err
		}()
		answer := <-held
		// Cancel and answer together: some rounds the response is dropped
		// as unknown, some it lands in the abandoned handle.
		go answer()
		cancel()
		if err := <-got; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for base := 1; base <= 1000; base += 16 {
		window(t, ctx, base)
	}
}

// (b) A reconnect replays the opens in flight and fails the drains (a
// control-plane mutation) with ErrReconnecting by closing their
// channels; neither may poison the windows that follow on the new
// connection.
func TestReconnectedCallsKeepTheirChannels(t *testing.T) {
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		if connNo == 1 && req.Op != netproto.OpContextInfo {
			kill() // the whole window is in flight: it went out in one write
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
	const n = 8
	var opens [n]*OpenCall
	var drains [n]*pendingCall
	for i := range opens {
		if opens[i], err = ctx.OpenAsync(ctx.Filename(2 * (i + 1))); err != nil {
			t.Fatal(err)
		}
		if drains[i], err = c.start(newEnv(netproto.OpDrain, netproto.CtxBody{Context: ctx.name})); err != nil {
			t.Fatal(err)
		}
	}
	for i := range opens {
		if res, err := opens[i].Wait(); err != nil || int(res.EstWait) != 2*(i+1) {
			t.Errorf("replayed open of step %d answered %+v, %v", 2*(i+1), res, err)
		}
		if err := c.await(context.Background(), drains[i], nil); !errors.Is(err, ErrReconnecting) {
			t.Errorf("drain %d cut by the reset answered %v, want ErrReconnecting", i, err)
		}
	}
	for base := 100; base < 100+10*16; base += 16 {
		window(t, ctx, base)
	}
}

// (c) Without reconnect a lost connection fails every call in flight
// down the normal token path — their channels are recycled — and a new
// client picks them up unharmed.
func TestLostConnectionFailsWindowThroughTokens(t *testing.T) {
	addr := scriptedDV(t, nil, func(connNo int, req fakeReq, send func(netproto.Response), kill func()) {
		if connNo == 1 && req.Op != netproto.OpContextInfo {
			kill()
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
	const n = 16
	var opens [n]*OpenCall
	var rels [n]*ReleaseCall
	for i := range opens {
		if opens[i], err = ctx.OpenAsync(ctx.Filename(i + 1)); err != nil {
			t.Fatal(err)
		}
		if rels[i], err = ctx.ReleaseAsync(ctx.Filename(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range opens {
		if _, err := opens[i].Wait(); err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("open %d on the lost connection answered %v", i, err)
		}
		if err := rels[i].Wait(); err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("release %d on the lost connection answered %v", i, err)
		}
	}
	if _, err := ctx.OpenAsync(ctx.Filename(1)); err == nil {
		t.Error("a call on the dead client was accepted")
	}

	c2, err := Dial(addr, "unit-2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, err := c2.Init("c")
	if err != nil {
		t.Fatal(err)
	}
	for base := 1; base <= 10*16; base += 16 {
		window(t, ctx2, base)
	}
}
