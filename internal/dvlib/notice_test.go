package dvlib

import (
	"sync/atomic"
	"testing"

	"simfs/internal/netproto"
)

// A client that closes a missed file without waiting keeps nothing for
// it: Close drops the notice record, and the notice, which the daemon
// still sends, ends the open's table entry.
func TestCloseBeforeNoticeLeaksNothing(t *testing.T) {
	var openID atomic.Uint64
	addr := scriptedDV(t, nil, func(_ int, req fakeReq, send func(netproto.Response), _ func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			openID.Store(req.ID)
			send(netproto.Response{ID: req.ID, OK: true, EstWaitNs: 1000})
		case netproto.OpRelease:
			// The notice comes after the close, before its answer.
			send(netproto.Response{ID: openID.Load(), OK: true, Ready: true, Done: true})
			send(netproto.Response{ID: req.ID, OK: true})
		}
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
	file := ctx.Filename(3)
	if res, err := ctx.Open(file); err != nil || res.Available {
		t.Fatalf("open = %+v, %v; want a miss", res, err)
	}
	if err := ctx.Close(file); err != nil {
		t.Fatal(err)
	}
	c.nmu.Lock()
	n := len(c.notices)
	c.nmu.Unlock()
	if n != 0 {
		t.Errorf("%d notice records left after the close", n)
	}
	if _, live := c.calls.Remove(openID.Load()); live {
		t.Error("the open's table entry outlived its notice")
	}
}

// A hit outdates what an earlier miss of the same file left behind: the
// wait after it asks the daemon instead of reading a stale notice.
func TestHitDropsStaleNotice(t *testing.T) {
	var opens, subscribes atomic.Int32
	addr := scriptedDV(t, nil, func(_ int, req fakeReq, send func(netproto.Response), _ func()) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(fakeInfo(req.ID))
		case netproto.OpOpen:
			if opens.Add(1) == 1 {
				// A miss whose re-simulation then fails.
				send(netproto.Response{ID: req.ID, OK: true, EstWaitNs: 1000})
				send(netproto.Response{ID: req.ID, Code: netproto.CodeFailed, Err: "re-simulation failed", Done: true})
				return
			}
			send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
		case netproto.OpSubscribe:
			subscribes.Add(1)
			send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: req.Files[0]})
			send(netproto.Response{ID: req.ID, OK: true, Done: true})
		}
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
	file := ctx.Filename(3)
	if res, err := ctx.Open(file); err != nil || res.Available {
		t.Fatalf("first open = %+v, %v; want a miss", res, err)
	}
	if res, err := ctx.Open(file); err != nil || !res.Available {
		t.Fatalf("second open = %+v, %v; want a hit", res, err)
	}
	if err := ctx.WaitAvailable(file); err != nil {
		t.Fatalf("wait after the hit = %v, want ready", err)
	}
	if n := subscribes.Load(); n != 1 {
		t.Errorf("the wait subscribed %d times, want once", n)
	}
}
