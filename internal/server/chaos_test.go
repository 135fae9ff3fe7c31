package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/dvlib"
	"simfs/internal/faults"
	"simfs/internal/model"
)

// chaosRetryPolicy is the failure-ledger config every chaos schedule
// runs under: aggressive enough to ride out injected faults, fast
// enough for a test.
var chaosRetryPolicy = core.RetryPolicy{
	MaxAttempts: 6,
	BaseBackoff: 2 * time.Millisecond,
	MaxBackoff:  20 * time.Millisecond,
	Jitter:      0.2,
	Cooldown:    150 * time.Millisecond,
	Seed:        1,
}

func chaosReconnect(seed int64) dvlib.ReconnectConfig {
	return dvlib.ReconnectConfig{
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		MaxElapsed:  30 * time.Second,
		Seed:        seed,
	}
}

// chaosClient runs one client's share of the contended workload:
// open → wait → release over a spread of files, retrying the attempts a
// fault schedule may legitimately fail (quarantine windows, connection
// resets mid-release).
func chaosClient(addr string, idx, filesPer int, reconnect bool) error {
	var opts []dvlib.DialOption
	if reconnect {
		opts = append(opts, dvlib.WithReconnect(chaosReconnect(int64(idx)+1)))
	}
	var c *dvlib.Client
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		// The handshake itself can be hit by a connection fault;
		// auto-reconnect only guards established sessions.
		if c, err = dvlib.Dial(addr, fmt.Sprintf("chaos-%d", idx), opts...); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("client %d: dial: %w", idx, err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		return fmt.Errorf("client %d: init: %w", idx, err)
	}
	for k := 0; k < filesPer; k++ {
		step := 1 + ((idx*filesPer+k)*7)%64
		file := ctx.Filename(step)
		if err := openWaitRelease(ctx, file); err != nil {
			return fmt.Errorf("client %d: %s: %w", idx, file, err)
		}
	}
	return nil
}

// openWaitRelease drives one file to availability and releases it,
// retrying through transient failures: a failed attempt drops its
// reference before retrying, so a healthy retry re-launches the
// re-simulation (and a quarantined interval gets its half-open probe
// once the cooldown elapses).
func openWaitRelease(ctx *dvlib.Context, file string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return errors.New("chaos workload timed out")
		}
		if _, err := ctx.Open(file); err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		waitErr := ctx.WaitAvailable(file)
		if err := releaseRetry(ctx, file); err != nil {
			return fmt.Errorf("release: %w", err)
		}
		if waitErr == nil {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// releaseRetry releases a file, riding out connection resets: a release
// interrupted in flight fails typed, keeps its ledger entry, and is safe
// to re-issue.
func releaseRetry(ctx *dvlib.Context, file string) error {
	for attempt := 0; ; attempt++ {
		err := ctx.Release(file)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, dvlib.ErrReconnecting) && attempt < 100:
			time.Sleep(10 * time.Millisecond)
		default:
			return err
		}
	}
}

func runChaosWorkload(t *testing.T, addr string, clients, filesPer int, reconnect bool) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errCh <- chaosClient(addr, i, filesPer, reconnect)
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestChaosWorkloadUnderFaults drives the contended 10-client workload
// through seeded fault schedules — storage I/O errors, simulation
// crash plans, connection cuts, and all three combined — and asserts
// the stack converges: every client completes, the fault counters prove
// the schedule actually fired, and the core invariants hold.
func TestChaosWorkloadUnderFaults(t *testing.T) {
	type schedule struct {
		name      string
		reconnect bool
		configure func(st *Stack) (fired func() uint64)
	}
	schedules := []schedule{
		{
			// Seeded storage faults on the launcher's write path: a failed
			// Create fails the whole run, exercising retry with partial
			// output prefixes on disk.
			name: "storage-faults",
			configure: func(st *Stack) func() uint64 {
				var mu sync.Mutex
				rng := rand.New(rand.NewSource(11))
				var injected uint64
				orig := st.Launcher.Write
				st.Launcher.Write = func(ctx *model.Context, step int) error {
					mu.Lock()
					fail := rng.Float64() < 0.04
					if fail {
						injected++
					}
					mu.Unlock()
					if fail {
						return &faults.InjectedError{Op: "create", Name: ctx.Filename(step)}
					}
					return orig(ctx, step)
				}
				return func() uint64 { mu.Lock(); defer mu.Unlock(); return injected }
			},
		},
		{
			// Seeded simulation crashes through the FailAt hook.
			name: "sim-crashes",
			configure: func(st *Stack) func() uint64 {
				plan := faults.NewSimPlan().WithRandom(23, 0.25)
				st.Launcher.FailAt = plan.FailAt
				return plan.Injected
			},
		},
		{
			// Connection cuts between client and daemon; clients ride
			// through on auto-reconnect.
			name:      "conn-resets",
			reconnect: true,
			configure: func(st *Stack) func() uint64 {
				plan := &faults.ConnPlan{Seed: 37, CutProb: 0.05, Partial: true}
				st.Server.WrapConn = plan.Wrap
				return plan.Injected
			},
		},
		{
			// Everything at once, distinct seeds.
			name:      "combined",
			reconnect: true,
			configure: func(st *Stack) func() uint64 {
				simPlan := faults.NewSimPlan().WithRandom(41, 0.15)
				st.Launcher.FailAt = simPlan.FailAt
				connPlan := &faults.ConnPlan{Seed: 43, CutProb: 0.02}
				st.Server.WrapConn = connPlan.Wrap
				return func() uint64 { return simPlan.Injected() + connPlan.Injected() }
			},
		},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			var fired func() uint64
			st, addr := testStackWith(t, func(st *Stack) {
				st.V.SetRetryPolicy(chaosRetryPolicy)
				fired = sc.configure(st)
			})
			runChaosWorkload(t, addr, 10, 3, sc.reconnect)
			if n := fired(); n == 0 {
				t.Error("fault schedule injected nothing; the run proved nothing")
			}
			if err := st.V.CheckInvariants(); err != nil {
				t.Errorf("invariants violated after chaos run: %v", err)
			}
			r, err := st.V.Report("clim")
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("chaos %s: failures=%d retries=%d quarantined=%d restarts=%d",
				sc.name, r.Failures, r.Retries, r.Quarantined, r.Restarts)
		})
	}
}

// connRecorder tracks accepted connections so a test can sever them all
// at once — a daemon crash as the clients observe it, with no drain
// frames and no goodbye.
type connRecorder struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (r *connRecorder) Wrap(c net.Conn) net.Conn {
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.mu.Unlock()
	return c
}

func (r *connRecorder) KillAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// bootChaosStack builds a daemon over baseDir and serves on addr
// ("127.0.0.1:0" for the first boot, the recorded address for a
// restart). Restart recovery is the documented sequence: initial
// simulation artifacts are idempotently re-created, then the storage
// area is rescanned so outputs produced before the crash are resident.
func bootChaosStack(t *testing.T, baseDir, addr string, wrap func(net.Conn) net.Conn) *Stack {
	t.Helper()
	ctx := &model.Context{
		Name:               "clim",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
		OutputBytes:        512,
		RestartBytes:       256,
		Tau:                4 * time.Millisecond,
		Alpha:              8 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
	st, err := NewStack(baseDir, 1, "DCL", ctx)
	if err != nil {
		t.Fatal(err)
	}
	st.V.SetRetryPolicy(chaosRetryPolicy)
	st.Server.WrapConn = wrap
	if err := st.RunInitialSimulation("clim"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.V.RescanStorageArea("clim"); err != nil {
		t.Fatal(err)
	}
	var lerr error
	for i := 0; i < 100; i++ { // the previous boot's port may linger briefly
		if lerr = st.Server.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatal(lerr)
	}
	go st.Server.Serve()
	return st
}

// TestDaemonRestartMidWorkload kills the daemon outright while clients
// hold references and wait on re-simulations, restarts it on the same
// address over the same storage area, and asserts the clients ride
// through on auto-reconnect: pending waits complete, a watch spanning
// the crash reports every file exactly once, and no references are
// leaked on either side.
func TestDaemonRestartMidWorkload(t *testing.T) {
	baseDir := t.TempDir()
	rec := &connRecorder{}
	st1 := bootChaosStack(t, baseDir, "127.0.0.1:0", rec.Wrap)
	addr := st1.Server.Addr()

	const clients = 4
	type clientState struct {
		c     *dvlib.Client
		ctx   *dvlib.Context
		files []string
	}
	var cls []*clientState
	t.Cleanup(func() {
		for _, cl := range cls {
			cl.c.Close()
		}
	})
	for i := 0; i < clients; i++ {
		c, err := dvlib.Dial(addr, fmt.Sprintf("rider-%d", i),
			dvlib.WithReconnect(chaosReconnect(int64(i)+100)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := c.Init("clim")
		if err != nil {
			t.Fatal(err)
		}
		cl := &clientState{c: c, ctx: ctx}
		for k := 0; k < 3; k++ {
			file := ctx.Filename(30 + i*8 + k) // deep steps: re-simulation guaranteed
			res, err := ctx.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			if res.Available {
				t.Fatalf("%s resident before any re-simulation", file)
			}
			cl.files = append(cl.files, file)
		}
		cls = append(cls, cl)
	}
	// One client watches its whole file set across the crash.
	watcher := cls[0]
	w, err := watcher.ctx.Watch(watcher.files...)
	if err != nil {
		t.Fatal(err)
	}
	watchDone := make(chan map[string]int, 1)
	go func() {
		got := map[string]int{}
		for ev := range w.Events() {
			if ev.Err != "" {
				t.Errorf("watch error across restart: %s", ev.Err)
			}
			if ev.File != "" && ev.Ready {
				got[ev.File]++
			}
		}
		watchDone <- got
	}()

	// Crash: sever every connection with no goodbye, stop the server,
	// and wait out its in-flight simulations so the restarted daemon is
	// the only writer on the storage area.
	rec.KillAll()
	st1.Server.Close()
	st1.Launcher.Wait()

	st2 := bootChaosStack(t, baseDir, addr, nil)
	t.Cleanup(func() {
		st2.Close()
		st2.Launcher.Wait()
	})

	// The clients' reconnect loops find the new daemon, replay their
	// reference ledgers (re-launching the re-simulations the crash
	// killed) and re-subscribe the watch; every pending wait completes.
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *clientState) {
			defer wg.Done()
			for _, f := range cl.files {
				if err := cl.ctx.WaitAvailable(f); err != nil {
					t.Errorf("wait %s across restart: %v", f, err)
				}
			}
		}(cl)
	}
	wg.Wait()

	got := <-watchDone
	for _, f := range watcher.files {
		if got[f] != 1 {
			t.Errorf("watch reported %s %d times across the restart, want exactly 1", f, got[f])
		}
	}

	// Release everything exactly once; a second release must be refused
	// — the ledger replay did not duplicate references.
	for _, cl := range cls {
		for _, f := range cl.files {
			if err := releaseRetry(cl.ctx, f); err != nil {
				t.Errorf("release %s: %v", f, err)
			}
			if err := cl.ctx.Release(f); !errors.Is(err, dvlib.ErrNotHeld) {
				t.Errorf("double release of %s = %v, want ErrNotHeld", f, err)
			}
		}
	}

	if err := st2.V.CheckInvariants(); err != nil {
		t.Errorf("invariants violated after restart: %v", err)
	}
	// No leaked references server-side either: once the launcher idles,
	// the context must be removable (RemoveContext refuses while any
	// file is referenced, any waiter is registered, or any sim runs).
	st2.Launcher.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := st2.V.RemoveContext("clim")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("context not removable after restart workload (leaked refs?): %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
