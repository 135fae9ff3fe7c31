package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/vfs"
)

// testStack spins up a full daemon on an ephemeral port with one small,
// fast context and returns it with its address.
func testStack(t *testing.T) (*Stack, string) {
	t.Helper()
	return testStackWith(t, nil)
}

// testStackWith is testStack with a hook to adjust the stack (e.g. wrap
// its launcher) after construction but before Serve starts.
func testStackWith(t *testing.T, configure func(*Stack)) (*Stack, string) {
	t.Helper()
	ctx := &model.Context{
		Name:               "clim",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
		OutputBytes:        512, // real bytes on disk per output step
		RestartBytes:       256,
		MaxCacheBytes:      0, // unbounded for most tests
		Tau:                4 * time.Millisecond,
		Alpha:              8 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
	st, err := NewStack(t.TempDir(), 1, "DCL", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation("clim"); err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(st)
	}
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

func TestTransparentModeEndToEnd(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "analysis-1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names, err := c.Contexts()
	if err != nil || len(names) != 1 || names[0] != "clim" {
		t.Fatalf("Contexts = %v, %v", names, err)
	}
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Finalize()

	file := ctx.Filename(6)
	res, err := ctx.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	if res.Available {
		t.Fatal("virtualized file should not be on disk before re-simulation")
	}
	content, err := ctx.Read(file) // blocks until the re-simulation produces it
	if err != nil {
		t.Fatal(err)
	}
	if want := vfs.Content(file, 512); !bytes.Equal(content, want) {
		t.Error("re-simulated content does not match the deterministic stream")
	}
	if err := ctx.Close(file); err != nil {
		t.Fatal(err)
	}

	// Second access is a hit.
	res, err = ctx.Open(file)
	if err != nil || !res.Available {
		t.Fatalf("re-open: %+v, %v", res, err)
	}
	ctx.Close(file)

	stats, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits < 1 || stats.Misses < 1 || stats.DemandRestarts < 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// The transparent-mode flow and a pipelined open/release window both
// work over binary frames.
func TestBinaryEndToEndPipelined(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "analysis-bin")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	file := ctx.Filename(3)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	content, err := ctx.Read(file)
	if err != nil {
		t.Fatal(err)
	}
	if want := vfs.Content(file, 512); !bytes.Equal(content, want) {
		t.Error("binary session served wrong content")
	}
	if err := ctx.Close(file); err != nil {
		t.Fatal(err)
	}

	// Pipelined window: queue a batch of opens, wait all, then the
	// releases, twice — refcounts must come back to zero each round.
	for round := 0; round < 2; round++ {
		var opens []*dvlib.OpenCall
		for i := 1; i <= 8; i++ {
			oc, err := ctx.OpenAsync(ctx.Filename(i))
			if err != nil {
				t.Fatal(err)
			}
			opens = append(opens, oc)
		}
		var rels []*dvlib.ReleaseCall
		for i := 1; i <= 8; i++ {
			rc, err := ctx.ReleaseAsync(ctx.Filename(i))
			if err != nil {
				t.Fatal(err)
			}
			rels = append(rels, rc)
		}
		for i, oc := range opens {
			if _, err := oc.Wait(); err != nil {
				t.Fatalf("round %d open %d: %v", round, i, err)
			}
		}
		for i, rc := range rels {
			if err := rc.Wait(); err != nil {
				t.Fatalf("round %d release %d: %v", round, i, err)
			}
		}
	}
}

func TestAcquireAndWaitsomeOverTCP(t *testing.T) {
	_, addr := testStack(t)
	c, err := dvlib.Dial(addr, "analysis-2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}

	files := []string{ctx.Filename(2), ctx.Filename(10), ctx.Filename(18)}
	req, err := ctx.AcquireNB(files...)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(files) && time.Now().Before(deadline) {
		idx, st, err := req.Waitsome()
		if err != nil {
			t.Fatal(err)
		}
		if st.Err != "" {
			t.Fatalf("acquire failed: %s", st.Err)
		}
		for _, i := range idx {
			got[i] = true
		}
	}
	if len(got) != len(files) {
		t.Fatalf("Waitsome reported %d of %d files", len(got), len(files))
	}
	st, err := req.Wait()
	if err != nil || !st.Ready {
		t.Fatalf("final wait: %+v, %v", st, err)
	}
	for _, f := range files {
		if err := ctx.Release(f); err != nil {
			t.Errorf("release %s: %v", f, err)
		}
	}
}

func TestAcquireBlockingAndTest(t *testing.T) {
	_, addr := testStack(t)
	c, _ := dvlib.Dial(addr, "analysis-3")
	defer c.Close()
	ctx, _ := c.Init("clim")

	req, err := ctx.AcquireNB(ctx.Filename(30))
	if err != nil {
		t.Fatal(err)
	}
	// Test may be false initially; eventually it must turn true.
	deadline := time.Now().Add(10 * time.Second)
	for {
		flag, _, err := req.Test()
		if err != nil {
			t.Fatal(err)
		}
		if flag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acquire never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Blocking acquire of already-resident files returns immediately.
	st, err := ctx.Acquire(ctx.Filename(30))
	if err != nil || !st.Ready {
		t.Fatalf("resident acquire = %+v, %v", st, err)
	}
}

func TestBitrepOverTCP(t *testing.T) {
	st, addr := testStack(t)
	c, _ := dvlib.Dial(addr, "analysis-4")
	defer c.Close()
	ctx, _ := c.Init("clim")

	file := ctx.Filename(3)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Read(file); err != nil {
		t.Fatal(err)
	}
	same, err := ctx.Bitrep(file)
	if err != nil || !same {
		t.Fatalf("Bitrep after faithful re-simulation = %v, %v", same, err)
	}
	// Corrupt the on-disk file: Bitrep must now report a mismatch.
	area, _ := st.V.StorageArea("clim")
	path := filepath.Join(area.(*vfs.Disk).Dir(), file)
	if err := os.WriteFile(path, []byte("corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	same, err = ctx.Bitrep(file)
	if err != nil || same {
		t.Fatalf("Bitrep after corruption = %v, %v", same, err)
	}
	ctx.Close(file)
}

func TestEstWaitAndRescanOverTCP(t *testing.T) {
	_, addr := testStack(t)
	c, _ := dvlib.Dial(addr, "analysis-5")
	defer c.Close()
	ctx, _ := c.Init("clim")

	file := ctx.Filename(40)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	w, err := ctx.EstWait(file)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Error("missing file should report a positive estimated wait")
	}
	if _, err := ctx.Read(file); err != nil {
		t.Fatal(err)
	}
	n, err := ctx.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("rescan found %d unknown files; cache and area should agree", n)
	}
	ctx.Close(file)
}

func TestConcurrentClients(t *testing.T) {
	_, addr := testStack(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dvlib.Dial(addr, fmt.Sprintf("client-%d", g))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ctx, err := c.Init("clim")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 6; i++ {
				file := ctx.Filename(g*8 + i + 1)
				if _, err := ctx.Open(file); err != nil {
					errs <- err
					return
				}
				if _, err := ctx.Read(file); err != nil {
					errs <- err
					return
				}
				if err := ctx.Close(file); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientDisconnectReleasesReferences(t *testing.T) {
	st, addr := testStack(t)
	c, _ := dvlib.Dial(addr, "dropper")
	ctx, _ := c.Init("clim")
	file := ctx.Filename(12)
	if _, err := ctx.Open(file); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Read(file); err != nil {
		t.Fatal(err)
	}
	c.Close() // abandon the reference

	// A fresh client must be able to release-cycle the same file: the
	// daemon cleaned up the dropped reference, so an over-release from
	// this client errors only once its own reference is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := st.V.Stats("clim")
		if err != nil {
			t.Fatal(err)
		}
		_ = stats
		c2, err := dvlib.Dial(addr, "successor")
		if err != nil {
			t.Fatal(err)
		}
		ctx2, _ := c2.Init("clim")
		if _, err := ctx2.Open(file); err != nil {
			t.Fatal(err)
		}
		if err := ctx2.Close(file); err != nil {
			t.Fatal(err)
		}
		// If the dropper's reference lingered, a second close would still
		// succeed (refcount > 0) — it must fail instead.
		err = ctx2.Close(file)
		c2.Close()
		if err != nil {
			return // reference fully cleaned: over-release rejected
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped client's reference never cleaned up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, addr := testStack(t)
	c, _ := dvlib.Dial(addr, "bad")
	defer c.Close()
	if _, err := c.Init("nope"); err == nil {
		t.Error("unknown context accepted")
	}
	ctx, _ := c.Init("clim")
	if _, err := ctx.Open("garbage-name"); err == nil {
		t.Error("unparseable file accepted")
	}
	if err := ctx.Close(ctx.Filename(1)); err == nil {
		t.Error("release without reference accepted")
	}
	if _, err := ctx.AcquireNB(); err == nil {
		t.Error("empty acquire accepted")
	}
}

func TestStackValidation(t *testing.T) {
	if _, err := NewStack(t.TempDir(), 1, "DCL"); err == nil {
		t.Error("stack without contexts accepted")
	}
	ctx := &model.Context{
		Name:        "x",
		Grid:        model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 16},
		OutputBytes: 64,
		Tau:         time.Millisecond,
	}
	if _, err := NewStack(t.TempDir(), 1, "NOPE", ctx); err == nil {
		t.Error("unknown policy accepted")
	}
	st, err := NewStack(t.TempDir(), 1, "LRU", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation("nope"); err == nil {
		t.Error("unknown context accepted by RunInitialSimulation")
	}
}

// The stats frame carries the dispatch latency summaries as
// metrics.LatencySet reports them. Its bytes are pinned, for a daemon
// that has timed nothing yet and for one that has.
func TestStatsOpLatencyWireBytes(t *testing.T) {
	lat := metrics.NewLatencySet(netproto.OpOpen, netproto.OpRelease)
	var buf bytes.Buffer
	for round := 0; round < 2; round++ {
		if round == 1 {
			for i := 0; i < 100; i++ {
				lat.Record(netproto.OpOpen, 100*time.Nanosecond)
			}
			lat.Record(netproto.OpRelease, 3*time.Microsecond)
			lat.Record(netproto.OpPing, time.Millisecond)
		}
		resp := netproto.Response{ID: 5, OK: true, Stats: &netproto.Stats{Hits: 2, Ops: lat.Summaries()}}
		if err := netproto.Binary.EncodeFrame(&buf, resp); err != nil {
			t.Fatal(err)
		}
	}
	const counters = `"opens":0,"hits":2,"misses":0,"restarts":0,"demand_restarts":0,"prefetch_launches":0,"dropped_prefetch":0,"steps_produced":0,"evictions":0,"kills":0,"failures":0,"pollution_resets":0`
	want := "\x00\x00\x00\xd3" + `{"id":5,"ok":true,"stats":{` + counters + `}}` +
		"\x00\x00\x01\x8a" + `{"id":5,"ok":true,"stats":{` + counters +
		`,"op_latencies":[{"op":"open","count":100,"p50_ns":128,"p99_ns":128},{"op":"release","count":1,"p50_ns":4096,"p99_ns":4096},{"op":"other","count":1,"p50_ns":1048576,"p99_ns":1048576}]}}`
	if got := buf.String(); got != want {
		t.Errorf("stats frames encode to\n%q\nwant\n%q", got, want)
	}
}
