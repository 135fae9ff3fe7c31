package dvlib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// fakeReq is the scripted daemon's flattened view of a request envelope:
// the body fields every data-plane op uses, decoded leniently.
type fakeReq struct {
	ID      uint64
	Op      string
	Context string
	Files   []string
}

// grantHello is a fake daemon's hello reply: the current version and
// the binary codec, which is what every session speaks after the hello.
func grantHello(id uint64) netproto.Response {
	return netproto.Response{ID: id, OK: true,
		Proto: &netproto.HelloInfo{Version: netproto.ProtoVersion, Caps: []string{netproto.CapBinary}}}
}

// fakeDV is a scripted daemon: handler receives each request and a send
// function for responses (possibly several per request). The protocol
// handshake and pings are answered automatically.
func fakeDV(t *testing.T, handler func(req fakeReq, send func(netproto.Response))) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var wmu sync.Mutex
				send := func(resp netproto.Response) {
					wmu.Lock()
					defer wmu.Unlock()
					netproto.Binary.EncodeFrame(conn, resp)
				}
				for {
					var env netproto.Envelope
					if err := netproto.Binary.DecodeFrame(conn, &env); err != nil {
						return
					}
					switch env.Op {
					case netproto.OpHello:
						send(grantHello(env.ID))
						continue
					case netproto.OpPing:
						send(netproto.Response{ID: env.ID, OK: true})
						continue
					}
					handler(decodeFakeReq(env), send)
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestDialHandshake(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Dialing a dead address fails.
	if _, err := Dial("127.0.0.1:1", "unit"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// grantOnce is a fake daemon that answers one connection's hello with
// grant, in JSON, and then reports what its next read saw.
func grantOnce(t *testing.T, grant netproto.HelloInfo) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	after := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			after <- err
			return
		}
		defer conn.Close()
		var env netproto.Envelope
		if err := netproto.JSON.DecodeFrame(conn, &env); err != nil {
			after <- err
			return
		}
		netproto.JSON.EncodeFrame(conn, netproto.Response{ID: env.ID, OK: true, Proto: &grant})
		after <- netproto.JSON.DecodeFrame(conn, &env)
	}()
	return ln.Addr().String(), after
}

// A daemon that grants the hello without the binary codec — a v2 one,
// or a v3 one started without it — cannot be spoken to: Dial fails with
// a version_mismatch *Error.
func TestDialRefusesJSONOnlyDaemon(t *testing.T) {
	for _, grant := range []netproto.HelloInfo{
		{Version: 2, Caps: []string{netproto.CapBinary}},
		{Version: netproto.ProtoVersion, Caps: []string{netproto.CapAdmin, netproto.CapWatch}},
	} {
		addr, _ := grantOnce(t, grant)
		_, err := Dial(addr, "unit")
		var de *Error
		if !errors.As(err, &de) || de.Op != "dial" || de.Code != netproto.CodeVersion {
			t.Errorf("dial against a grant of %+v: %v, want a dial %s *Error", grant, err, netproto.CodeVersion)
		}
	}
}

// A daemon that advertises no capabilities at all gets no JSON fallback:
// the client refuses the grant and hangs up without sending a frame.
func TestJSONFallbackAgainstCaplessDaemon(t *testing.T) {
	addr, after := grantOnce(t, netproto.HelloInfo{Version: netproto.ProtoVersion})
	c, err := Dial(addr, "unit")
	if err == nil {
		c.Close()
		t.Fatal("dial to a capless daemon succeeded")
	}
	if code := ErrCodeOf(err); code != netproto.CodeVersion {
		t.Errorf("dial failed with code %q (%v), want %q", code, err, netproto.CodeVersion)
	}
	if err := <-after; err != io.EOF {
		t.Errorf("after the refused grant the daemon read %v, want the client to hang up", err)
	}
}

func TestCallErrorPropagation(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		send(netproto.Response{ID: req.ID, Err: "synthetic failure"})
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Contexts(); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Contexts(); err == nil {
		t.Error("call after Close succeeded")
	}
}

func TestConnectionLossFailsPendingCalls(t *testing.T) {
	stop := make(chan struct{})
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		// Swallow the request and never answer; the test kills the
		// connection from the client side instead.
		close(stop)
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Contexts()
		done <- err
	}()
	<-stop
	c.conn.Close() // simulate a dropped connection
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call survived a dropped connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call hung after connection loss")
	}
}

func TestClientDemuxInterleaved(t *testing.T) {
	// The daemon answers requests out of order; the demux must route each
	// response to its caller by ID.
	var mu sync.Mutex
	var stash []fakeReq
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		mu.Lock()
		stash = append(stash, req)
		two := len(stash) == 2
		var a, b fakeReq
		if two {
			a, b = stash[0], stash[1]
			stash = nil
		}
		mu.Unlock()
		if two {
			// Answer in reverse arrival order.
			send(netproto.Response{ID: b.ID, OK: true, Names: []string{"second"}})
			send(netproto.Response{ID: a.ID, OK: true, Names: []string{"first"}})
		}
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names, err := c.Contexts()
			if err != nil || len(names) != 1 {
				t.Errorf("call %d: %v %v", i, names, err)
				return
			}
			results[i] = names[0]
		}(i)
		time.Sleep(20 * time.Millisecond) // enforce arrival order
	}
	wg.Wait()
	if results[0] != "first" || results[1] != "second" {
		t.Errorf("demux misrouted: %v", results)
	}
}

func TestAcquireSubscriptionStreaming(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(netproto.Response{ID: req.ID, OK: true, Info: &netproto.ContextInfo{
				Name: req.Context, FilePrefix: "x_", FileSuffix: ".nc",
			}})
		case netproto.OpAcquire:
			// Stream per-file readiness then the final frame, with delays.
			go func() {
				for _, f := range req.Files {
					time.Sleep(5 * time.Millisecond)
					send(netproto.Response{ID: req.ID, OK: true, Ready: true, File: f})
				}
				send(netproto.Response{ID: req.ID, OK: true, Done: true})
			}()
		}
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("any")
	if err != nil {
		t.Fatal(err)
	}
	req, err := ctx.AcquireNB("x_00000001.nc", "x_00000002.nc", "x_00000003.nc")
	if err != nil {
		t.Fatal(err)
	}
	// Waitsome must surface files incrementally, each exactly once.
	seen := map[int]int{}
	for len(seen) < 3 {
		idx, st, err := req.Waitsome()
		if err != nil || st.Err != "" {
			t.Fatalf("waitsome: %v %v", err, st)
		}
		for _, i := range idx {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("file %d reported %d times", i, n)
		}
	}
	st, err := req.Wait()
	if err != nil || !st.Ready {
		t.Fatalf("wait: %v %v", st, err)
	}
	// After completion Testsome returns nothing new.
	if idx, _, _ := req.Testsome(); len(idx) != 0 {
		t.Errorf("testsome after drain returned %v", idx)
	}
	if files := req.Files(); len(files) != 3 {
		t.Errorf("Files() = %v", files)
	}
}

func TestAcquireFailureStatus(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(netproto.Response{ID: req.ID, OK: true, Info: &netproto.ContextInfo{Name: req.Context}})
		case netproto.OpAcquire:
			send(netproto.Response{ID: req.ID, Err: "restart failed", Done: true, File: req.Files[0]})
		}
	})
	c, _ := Dial(addr, "unit")
	defer c.Close()
	ctx, _ := c.Init("any")
	st, err := ctx.Acquire("f1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready || st.Err != "restart failed" {
		t.Errorf("status = %+v, want the error state", st)
	}
	if _, err := ctx.AcquireNB(); err == nil {
		t.Error("empty acquire accepted")
	}
}

func TestSubscriptionSurvivesConnectionLossWithError(t *testing.T) {
	accepted := make(chan struct{})
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		switch req.Op {
		case netproto.OpContextInfo:
			send(netproto.Response{ID: req.ID, OK: true, Info: &netproto.ContextInfo{Name: req.Context}})
		case netproto.OpAcquire:
			close(accepted) // never answer
		}
	})
	c, _ := Dial(addr, "unit")
	ctx, _ := c.Init("any")
	req, err := ctx.AcquireNB("f1")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	c.conn.Close()
	st, err := req.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready || st.Err == "" {
		t.Errorf("status after connection loss = %+v, want error", st)
	}
}

func TestAsyncCallsBatchUntilWait(t *testing.T) {
	var mu sync.Mutex
	var got []string
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		mu.Lock()
		got = append(got, req.Op)
		mu.Unlock()
		send(netproto.Response{ID: req.ID, OK: true, Available: true, Done: true})
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := &Context{c: c, name: "any"}

	// Queue a window of opens and releases: nothing goes on the wire yet.
	var opens []*OpenCall
	var rels []*ReleaseCall
	for i := 0; i < 4; i++ {
		oc, err := ctx.OpenAsync(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		opens = append(opens, oc)
		rc, err := ctx.ReleaseAsync(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rc)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	seen := len(got)
	mu.Unlock()
	if seen != 0 {
		t.Fatalf("%d frames reached the daemon before any Wait/Flush", seen)
	}

	// The first Wait flushes the whole batch; every handle resolves.
	for i, oc := range opens {
		res, err := oc.Wait()
		if err != nil || !res.Available {
			t.Fatalf("open %d: %+v %v", i, res, err)
		}
	}
	for i, rc := range rels {
		if err := rc.Wait(); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 8 {
		t.Fatalf("daemon saw %d requests, want 8", len(got))
	}
	// The daemon must have seen the frames in issue order (pipelining
	// preserves per-connection ordering).
	for i, op := range got {
		want := netproto.OpOpen
		if i%2 == 1 {
			want = netproto.OpRelease
		}
		if op != want {
			t.Fatalf("request %d = %s, want %s (order: %v)", i, op, want, got)
		}
	}
}

func TestExplicitFlushSendsQueuedFrames(t *testing.T) {
	delivered := make(chan string, 1)
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		delivered <- req.Op
		send(netproto.Response{ID: req.ID, OK: true})
	})
	c, err := Dial(addr, "unit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := &Context{c: c, name: "any"}
	oc, err := ctx.OpenAsync("f1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case op := <-delivered:
		if op != netproto.OpOpen {
			t.Fatalf("daemon saw %s, want %s", op, netproto.OpOpen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("explicit Flush did not deliver the queued frame")
	}
	if _, err := oc.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFilenameFollowsContextInfo(t *testing.T) {
	addr := fakeDV(t, func(req fakeReq, send func(netproto.Response)) {
		send(netproto.Response{ID: req.ID, OK: true, Info: &netproto.ContextInfo{
			Name: req.Context, FilePrefix: "cosmo_out_", FileSuffix: ".h5",
		}})
	})
	c, _ := Dial(addr, "unit")
	defer c.Close()
	ctx, _ := c.Init("cosmo")
	if got := ctx.Filename(42); got != "cosmo_out_00000042.h5" {
		t.Errorf("Filename = %q", got)
	}
	if ctx.Name() != "cosmo" {
		t.Errorf("Name = %q", ctx.Name())
	}
	if ctx.Info().FilePrefix != "cosmo_out_" {
		t.Errorf("Info = %+v", ctx.Info())
	}
}
