package dvlib

import (
	"encoding/binary"
	"io"
	"maps"
	"net"
	"sync"
	"testing"
	"time"

	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/server"
)

// These tests run a WithReconnect client against a real daemon
// (server.NewStack on a loopback port), so what they check is what the
// daemon's sessions hold, not what a script answers.

// cutter wraps the daemon's accepted connections and cuts the current
// one when the daemon is about to read a chosen request frame: the
// frames before it reach the daemon, that one and the later ones do
// not. It passes one frame per Read, so the cut falls on a frame
// boundary.
type cutter struct {
	mu   sync.Mutex
	cur  *cutConn
	cuts int // connections cut so far
}

type cutConn struct {
	net.Conn
	c      *cutter
	frames int // frames read so far, the hello included
	cutAt  int // frame index to cut at; -1 never
	buf    []byte
}

func (c *cutter) Wrap(nc net.Conn) net.Conn {
	cc := &cutConn{Conn: nc, c: c, cutAt: -1}
	c.mu.Lock()
	c.cur = cc
	c.mu.Unlock()
	return cc
}

// arm cuts the current connection at the k-th request frame from now
// on (0: the next one). The client must have no frame unread by the
// daemon: a round trip just answered guarantees it.
func (c *cutter) arm(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.cutAt = c.cur.frames + k
}

func (c *cutter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cuts
}

func (cc *cutConn) Read(p []byte) (int, error) {
	if len(cc.buf) == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(cc.Conn, hdr[:]); err != nil {
			return 0, err
		}
		cc.c.mu.Lock()
		cut := cc.frames == cc.cutAt
		if cut {
			cc.c.cuts++
		}
		cc.frames++
		cc.c.mu.Unlock()
		if cut {
			cc.Conn.Close()
			return 0, io.EOF
		}
		cc.buf = make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(cc.buf, hdr[:])
		if _, err := io.ReadFull(cc.Conn, cc.buf[4:]); err != nil {
			return 0, err
		}
	}
	n := copy(p, cc.buf)
	cc.buf = cc.buf[n:]
	return n, nil
}

// realDV serves a daemon with one 128-step context "clim" on a loopback
// port: 2 ms simulation start-up, 1 ms per output step, outputs missing
// until re-simulated. wrap, when set, wraps every accepted connection.
func realDV(t *testing.T, wrap func(net.Conn) net.Conn) (*server.Stack, string) {
	t.Helper()
	st, err := server.NewStack(t.TempDir(), 1, "DCL", &model.Context{
		Name:               "clim",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 128},
		OutputBytes:        256,
		RestartBytes:       128,
		Tau:                time.Millisecond,
		Alpha:              2 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation("clim"); err != nil {
		t.Fatal(err)
	}
	st.Server.WrapConn = wrap
	if err := st.Server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go st.Server.Serve()
	t.Cleanup(func() {
		st.Close()
		st.Launcher.Wait()
	})
	return st, st.Server.Addr()
}

// heldCopy returns a copy of the client's reference ledger for a context.
func heldCopy(c *Client, ctxName string) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.held[ctxName])
}

// drainRefs releases file until the daemon refuses, and returns how many
// releases it accepted: the references this client's session held. The
// refusal must be the daemon's bad_request.
func drainRefs(t *testing.T, ctx *Context, file string) int {
	t.Helper()
	for n := 0; ; n++ {
		err := ctx.Release(file)
		if err == nil {
			continue
		}
		if code := ErrCodeOf(err); code != netproto.CodeBadRequest {
			t.Fatalf("release of %s refused with %v (code %q), want bad_request", file, err, code)
		}
		return n
	}
}

// TestReconnectExactlyOnceAtEveryCut cuts the connection at each request
// of one pipelined window that mixes open, release, acquire, watch and
// its cancel, prefetch and regsum. After every ride-through each call
// is answered once and without error, the daemon holds exactly the
// references the client's ledger counts, and the core's invariants
// hold. A release or an acquire in the window lands exactly once, cut
// before or after the daemon read it.
func TestReconnectExactlyOnceAtEveryCut(t *testing.T) {
	cut := &cutter{}
	st, addr := realDV(t, cut.Wrap)
	c, err := Dial(addr, "exactly-once", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	const window = 9 // request frames the window sends
	for k := 0; k < window; k++ {
		base := 1 + 8*k // fresh steps: every open misses
		f := func(i int) string { return ctx.Filename(base + i) }
		// f0 is held from before the window, in the ledger.
		if _, err := ctx.Open(f(0)); err != nil {
			t.Fatal(err)
		}
		cut.arm(k)
		before := cut.count()

		open1, err := ctx.OpenAsync(f(1)) // 0
		if err != nil {
			t.Fatal(err)
		}
		rel0, err := ctx.ReleaseAsync(f(0)) // 1
		if err != nil {
			t.Fatal(err)
		}
		open2, err := ctx.OpenAsync(f(2)) // 2
		if err != nil {
			t.Fatal(err)
		}
		acq, err := ctx.AcquireNB(f(3), f(4)) // 3
		if err != nil {
			t.Fatal(err)
		}
		w, err := ctx.Watch(f(2)) // 4
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Cancel(); err != nil { // 5
			t.Fatalf("cut %d: watch cancel = %v", k, err)
		}
		if _, err := ctx.Prefetch(f(5)); err != nil { // 6
			t.Fatalf("cut %d: prefetch = %v", k, err)
		}
		if err := ctx.RegisterChecksum(f(6), uint64(base)); err != nil { // 7
			t.Fatalf("cut %d: regsum = %v", k, err)
		}
		rel1, err := ctx.ReleaseAsync(f(1)) // 8
		if err != nil {
			t.Fatal(err)
		}

		if _, err := open1.Wait(); err != nil {
			t.Errorf("cut %d: open %s = %v", k, f(1), err)
		}
		if err := rel0.Wait(); err != nil {
			t.Errorf("cut %d: release %s = %v", k, f(0), err)
		}
		if _, err := open2.Wait(); err != nil {
			t.Errorf("cut %d: open %s = %v", k, f(2), err)
		}
		// The old session's disconnect cleanup may kill the client's
		// prefetches nobody waits for yet; the kill settles their
		// promises, so the re-armed acquire launches its own run.
		if as, err := acq.Wait(); err != nil || !as.Ready {
			t.Errorf("cut %d: acquire = %+v, %v", k, as, err)
		}
		if err := rel1.Wait(); err != nil {
			t.Errorf("cut %d: release %s = %v", k, f(1), err)
		}
		events, dones := map[string]int{}, 0
		for ev := range w.Events() {
			if ev.File != "" {
				events[ev.File]++
			}
			if ev.Done {
				dones++
			}
		}
		if events[f(2)] > 1 || dones != 1 {
			t.Errorf("cut %d: watch reported %v and %d Done events", k, events, dones)
		}
		if n := cut.count() - before; n != 1 {
			t.Fatalf("cut %d: the window cut %d connections, want 1", k, n)
		}

		want := map[string]int{f(2): 1, f(3): 1, f(4): 1}
		if got := heldCopy(c, "clim"); !maps.Equal(got, want) {
			t.Errorf("cut %d: ledger = %v, want %v", k, got, want)
		}
		for i := range 7 {
			if n := drainRefs(t, ctx, f(i)); n != want[f(i)] {
				t.Errorf("cut %d: the daemon held %s %d times, the ledger %d", k, f(i), n, want[f(i)])
			}
		}
		if got := heldCopy(c, "clim"); len(got) != 0 {
			t.Errorf("cut %d: ledger after draining = %v", k, got)
		}
		if err := st.V.CheckInvariants(); err != nil {
			t.Errorf("cut %d: %v", k, err)
		}
	}
}

// A release of a file this client does not hold — never opened, or
// released already — is refused by the daemon with bad_request.
func TestDoubleReleaseRefused(t *testing.T) {
	_, addr := realDV(t, nil)
	c, err := Dial(addr, "unit", WithReconnect(fastReconnect))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(3)
	if err := ctx.Release(file); ErrCodeOf(err) != netproto.CodeBadRequest {
		t.Fatalf("release without open = %v, want bad_request", err)
	}
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Release(file); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Release(file); ErrCodeOf(err) != netproto.CodeBadRequest {
		t.Fatalf("double release = %v, want bad_request", err)
	}
	if _, err := ctx.Open(file); err != nil { // the refusals left the session usable
		t.Fatal(err)
	}
	if err := ctx.Release(file); err != nil {
		t.Fatal(err)
	}
}
