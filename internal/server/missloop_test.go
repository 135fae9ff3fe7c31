package server

import (
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/dvlib"
	"simfs/internal/model"
	"simfs/internal/simulator"
	"simfs/internal/vfs"
)

// missDaemon serves one context whose opens keep missing, as the
// miss_resim workload's does: a cache of two restart intervals over 64
// of them, and simulations whose model terms round to nothing. Its
// storage area is in memory, so the file system allocates nothing a
// disk would not. With a gate, every step written waits for a token from
// it. It returns the daemon's address.
func missDaemon(t *testing.T, gate <-chan struct{}) (*model.Context, string) {
	t.Helper()
	ctx := &model.Context{
		Name: "miss", Grid: model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 512},
		OutputBytes: 64, RestartBytes: 64, MaxCacheBytes: 16 * 64,
		Tau: time.Microsecond, Alpha: time.Microsecond,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	area := vfs.NewMem()
	launcher := &simulator.RealTimeLauncher{TimeScale: 1000}
	v := core.New(des.NewWallClock(), launcher)
	launcher.Events = v
	launcher.Write = func(ctx *model.Context, step int) error {
		if gate != nil {
			<-gate
		}
		return area.Create(ctx.Filename(step), ctx.OutputBytes)
	}
	if err := v.AddContext(ctx, "DCL", area); err != nil {
		t.Fatal(err)
	}
	srv := New(v, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		launcher.Wait()
	})
	return ctx, srv.Addr()
}

// frameCounter relays one direction of a connection and counts the
// length-prefixed frames that crossed it.
func frameCounter(dst io.Writer, src io.Reader, n *atomic.Int64) {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		n.Add(1) // before the frame lands: whoever reads it sees the count
		if _, err := dst.Write(append(hdr[:], payload...)); err != nil {
			return
		}
	}
}

// countingProxy forwards one connection to addr and counts the frames
// each way: requests is what the daemon read, responses what the
// client read.
func countingProxy(t *testing.T, addr string) (proxy string, requests, responses *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests, responses = new(atomic.Int64), new(atomic.Int64)
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		daemon, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer daemon.Close()
		go frameCounter(client, daemon, responses)
		frameCounter(daemon, client, requests)
	}()
	return ln.Addr().String(), requests, responses
}

// missLoop is the transparent-mode read of a missing file: Open, which
// misses, WaitAvailable, Close.
func missLoop(t *testing.T, ctx *dvlib.Context, file string) {
	t.Helper()
	res, err := ctx.Open(file)
	if err != nil || res.Available {
		t.Fatalf("open %s = %+v, %v; want a miss", file, res, err)
	}
	if err := ctx.WaitAvailable(file); err != nil {
		t.Fatalf("wait %s: %v", file, err)
	}
	if err := ctx.Close(file); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMissNoticeNoSubscribe pins the wire cost of reading a missing
// file: the open is answered twice on its own ID — the miss, then the
// notice WaitAvailable waits on — so the daemon reads the open and the
// release, and the client reads the two answers and the release's.
func TestOpenMissNoticeNoSubscribe(t *testing.T) {
	mctx, addr := missDaemon(t, nil)
	proxy, requests, responses := countingProxy(t, addr)
	c, err := dvlib.Dial(proxy, "wire")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init(mctx.Name)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		reqs0, resps0 := requests.Load(), responses.Load()
		missLoop(t, ctx, ctx.Filename(64*i+3)) // a fresh interval each time round
		if got := requests.Load() - reqs0; got != 2 {
			t.Errorf("miss %d: the daemon read %d requests, want 2 (open, release)", i, got)
		}
		if got := responses.Load() - resps0; got != 3 {
			t.Errorf("miss %d: the client read %d frames, want 3 (the miss, its notice, the release's answer)", i, got)
		}
	}
}

// TestMissPathAllocBudget pins what the read of a missing file allocates
// end to end — client library, both directions of the wire, daemon
// session, core, scheduler, launcher — for the loop missLoop drives, on
// a context shaped like miss_resim's. AllocsPerRun counts process-wide
// mallocs, so the daemon's goroutines and the re-simulation are
// included; the simulation of the last loop may still be producing
// its later steps when the count is read.
//
// What a loop still allocates, by site (from a -memprofilerate 1
// profile of this test):
//
//	5  the launcher: the run record, the goroutine's closure, and the
//	   timer (three objects: the Timer, its channel, the channel's buffer)
//	1  core: the simulation record
//	2  dvlib: the open's and the release's call handles
//	1  dvlib: the notice record the missed open hands its ID to
//	1  notify: the step's waiter list
//	1  this test's ctx.Filename of the next file (dvlib formats it)
//
// The 8 steps a simulation writes and the 8 the cache evicts are named
// from the context's name table, and the victims land in the shard's
// reused buffer, so producing a step allocates nothing (core's
// TestStepProducedAtCapacityAllocFree). The daemon takes the open's and
// the release's context and file name from the same table instead of
// copying them off the wire (core.Virtualizer.Names). A
// subscribe stream per wait — a second request, its notify.Sub and
// topic map, the daemon's fileWatch and the client's ledger — is gone:
// WaitAvailable waits on the open's own notice.
func TestMissPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	const budget = 11.0 + 1 // measured, plus one for whatever the runtime does meanwhile

	mctx, addr := missDaemon(t, nil)
	c, err := dvlib.Dial(addr, "budget")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init(mctx.Name)
	if err != nil {
		t.Fatal(err)
	}
	// A different interval every time round, so every open misses; 64
	// intervals wrap far past the cache's two.
	next := 0
	loop := func() {
		missLoop(t, ctx, ctx.Filename(8*(next%64)+5))
		next++
	}
	for range 64 {
		loop() // warm the pools, the maps and the cache up
	}
	perLoop := testing.AllocsPerRun(200, loop)
	t.Logf("%.2f allocations per missed open/wait/close", perLoop)
	if perLoop > budget {
		t.Errorf("%.2f allocations per missed open/wait/close, budget %.1f", perLoop, budget)
	}
}
