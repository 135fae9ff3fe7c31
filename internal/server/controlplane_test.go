package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/sched"
)

// controlStack builds a daemon with one demand-only context whose smax
// is 1, so a single running re-simulation saturates the paper's
// prefetch-admission rule — the lever the scheduler reconfiguration test
// flips live.
func controlStack(t *testing.T) (*Stack, string) {
	t.Helper()
	ctx := &model.Context{
		Name:               "cp",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
		OutputBytes:        256,
		RestartBytes:       128,
		Tau:                2 * time.Millisecond,
		Alpha:              40 * time.Millisecond, // wide admin window while a sim runs
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               1,
		NoPrefetch:         true,
	}
	st, err := NewStack(t.TempDir(), 1, "DCL", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation("cp"); err != nil {
		t.Fatal(err)
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

// waitAvailable polls an Open until the file is resident, releasing the
// reference each round.
func waitAvailable(t *testing.T, ctx *dvlib.Context, file string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := ctx.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Close(file)
		if res.Available {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never materialized", file)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedReconfigureLiveDaemon flips the scheduler's priority policy on
// a live daemon and asserts the admission behaviour changes: with the
// zero (paper-exact) config a guided prefetch beyond smax is dropped;
// after `sched-set -priorities` the same hint queues and eventually
// launches instead.
func TestSchedReconfigureLiveDaemon(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()

	// The daemon boots with the zero (paper-exact) policy.
	cfg, err := admin.SchedConfig(cx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Coalesce || cfg.Priorities || cfg.TotalNodes != 0 {
		t.Fatalf("zero-config daemon reports %+v", cfg)
	}

	ctx, err := c.Init("cp")
	if err != nil {
		t.Fatal(err)
	}
	// Saturate smax=1 with a demand miss; the restart latency (40 ms)
	// keeps the slot busy while the control calls below land.
	if _, err := ctx.Open(ctx.Filename(1)); err != nil {
		t.Fatal(err)
	}
	// Paper rule: prefetch at capacity is dropped.
	if _, err := ctx.Prefetch(ctx.Filename(17)); err != nil {
		t.Fatal(err)
	}
	st, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedPrefetch != 1 {
		t.Fatalf("dropped prefetch = %d, want 1 (paper-exact drop at smax)", st.DroppedPrefetch)
	}

	// Flip priorities live (partial update: coalesce untouched).
	on := true
	cfg, err = admin.SetSchedConfig(cx, dvlib.SchedUpdate{Priorities: &on})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Priorities || cfg.Coalesce {
		t.Fatalf("sched-set returned %+v, want priorities on, coalesce unchanged", cfg)
	}

	// The same hint now queues instead of dropping…
	if _, err := ctx.Prefetch(ctx.Filename(33)); err != nil {
		t.Fatal(err)
	}
	st, err = ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedPrefetch != 1 {
		t.Fatalf("dropped prefetch after reconfigure = %d, want still 1 (hint queued, not dropped)", st.DroppedPrefetch)
	}
	// …and launches once the demand simulation frees the slot. Wait on
	// the notification: polling with Open would be a demand open landing
	// on the queued hint, which promotes it and launches it as demand.
	if err := ctx.WaitAvailable(ctx.Filename(33)); err != nil {
		t.Fatal(err)
	}
	st, err = ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PrefetchLaunches == 0 {
		t.Error("queued guided prefetch never launched after the slot freed")
	}
	ctx.Close(ctx.Filename(1))
}

// TestCachePolicySwapLiveDaemon swaps a context's replacement scheme on
// the live daemon: the resident set survives the swap and ctxinfo
// reports the new scheme.
func TestCachePolicySwapLiveDaemon(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()

	ctx, err := c.Init("cp")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Info().Policy != "DCL" {
		t.Fatalf("boot policy = %q, want DCL", ctx.Info().Policy)
	}

	// Materialize two files, then drop the references so the swap deals
	// with an unpinned resident set.
	for _, step := range []int{2, 3} {
		f := ctx.Filename(step)
		if _, err := ctx.Open(f); err != nil {
			t.Fatal(err)
		}
		waitAvailable(t, ctx, f)
		ctx.Close(f)
	}

	if err := admin.SetCachePolicy(cx, "cp", "LIRS"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Init("cp")
	if err != nil {
		t.Fatal(err)
	}
	if info.Info().Policy != "LIRS" {
		t.Errorf("policy after swap = %q, want LIRS", info.Info().Policy)
	}
	// The resident set survived the swap: both files still hit.
	for _, step := range []int{2, 3} {
		f := ctx.Filename(step)
		res, err := ctx.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Available {
			t.Errorf("%s lost residency across the policy swap", f)
		}
		ctx.Close(f)
	}

	// Structured failures: unknown policy, unknown context.
	if err := admin.SetCachePolicy(cx, "cp", "FIFO"); dvlib.ErrCodeOf(err) != netproto.CodeBadRequest {
		t.Errorf("unknown policy: code %q (%v)", dvlib.ErrCodeOf(err), err)
	}
	if err := admin.SetCachePolicy(cx, "nope", "LRU"); dvlib.ErrCodeOf(err) != netproto.CodeNoSuchContext {
		t.Errorf("unknown context: code %q (%v)", dvlib.ErrCodeOf(err), err)
	}
}

// TestDrainResumeLiveDaemon drains a context (new opens refused with
// CodeBusy, releases still accepted) and resumes it.
func TestDrainResumeLiveDaemon(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()

	ctx, err := c.Init("cp")
	if err != nil {
		t.Fatal(err)
	}
	f := ctx.Filename(5)
	if _, err := ctx.Open(f); err != nil {
		t.Fatal(err)
	}
	if err := admin.Drain(cx, "cp"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(ctx.Filename(9)); dvlib.ErrCodeOf(err) != netproto.CodeBusy {
		t.Errorf("open while draining: code %q (%v), want busy", dvlib.ErrCodeOf(err), err)
	}
	// Releases still land while draining — the workload must be able to
	// empty out.
	if err := ctx.Close(f); err != nil {
		t.Errorf("release while draining: %v", err)
	}
	if err := admin.Resume(cx, "cp"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(ctx.Filename(9)); err != nil {
		t.Errorf("open after resume: %v", err)
	}
	ctx.Close(ctx.Filename(9))
}

// A context name that could escape the storage root is rejected before
// any directory is created.
func TestCtxRegisterRejectsPathTraversal(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()
	for _, name := range []string{"../escape", "a/b", `a\b`, "..", "."} {
		evil := &model.Context{
			Name: name, Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 8},
			OutputBytes: 64, Tau: time.Millisecond, Alpha: time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 1,
		}
		if err := admin.RegisterContext(cx, evil, "LRU", false); err == nil {
			t.Errorf("context name %q accepted", name)
		}
	}
}

// A timeline's length arrives over the wire too: one longer than a
// shard's step table holds is a bad request, and the daemon keeps
// serving.
func TestCtxRegisterRejectsOverlongTimeline(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()
	def := func(name string, timesteps int) *model.Context {
		return &model.Context{
			Name: name, Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: timesteps},
			OutputBytes: 64, Tau: time.Millisecond, Alpha: time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 1,
		}
	}
	for _, steps := range []int{math.MaxInt, 1_000_000_000} {
		err := admin.RegisterContext(cx, def(fmt.Sprint("long", steps), steps), "LRU", false)
		if code := dvlib.ErrCodeOf(err); code != netproto.CodeBadRequest {
			t.Errorf("%d output steps: code %q (%v), want bad_request", steps, code, err)
		}
	}
	if err := admin.RegisterContext(cx, def("short", 8), "LRU", false); err != nil {
		t.Errorf("a short timeline after the refusals: %v", err)
	}
}

// TestContextLifecycleLiveDaemon registers a brand-new context on the
// running daemon, serves an analysis from it, drains it and deregisters
// it again.
func TestContextLifecycleLiveDaemon(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()

	dyn := &model.Context{
		Name:               "dyn",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 32},
		OutputBytes:        128,
		RestartBytes:       64,
		Tau:                time.Millisecond,
		Alpha:              2 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               2,
		NoPrefetch:         true,
	}
	if err := admin.RegisterContext(cx, dyn, "LRU", true); err != nil {
		t.Fatal(err)
	}
	names, err := c.Contexts()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		found = found || n == "dyn"
	}
	if !found {
		t.Fatalf("registered context missing from %v", names)
	}

	// The new context serves an analysis end to end: miss, re-simulate,
	// read, bitwise-reproducible.
	dctx, err := c.Init("dyn")
	if err != nil {
		t.Fatal(err)
	}
	if dctx.Info().Policy != "LRU" {
		t.Errorf("dyn policy = %q, want LRU", dctx.Info().Policy)
	}
	f := dctx.Filename(2)
	if _, err := dctx.Open(f); err != nil {
		t.Fatal(err)
	}
	if _, err := dctx.Read(f); err != nil {
		t.Fatal(err)
	}
	if same, err := dctx.Bitrep(f); err != nil || !same {
		t.Errorf("bitrep on re-simulated file = %v, %v", same, err)
	}
	if err := dctx.Close(f); err != nil {
		t.Fatal(err)
	}

	// Deregistering a busy context is refused; after the drain empties
	// it, the removal lands.
	if err := admin.Drain(cx, "dyn"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := admin.DeregisterContext(cx, "dyn")
		if err == nil {
			break
		}
		if dvlib.ErrCodeOf(err) != netproto.CodeBusy {
			t.Fatalf("deregister failed with code %q: %v", dvlib.ErrCodeOf(err), err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("context never became quiescent: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Init("dyn"); dvlib.ErrCodeOf(err) != netproto.CodeNoSuchContext {
		t.Errorf("init of deregistered context: code %q (%v)", dvlib.ErrCodeOf(err), err)
	}
	// Re-registering recovers the storage area (files stayed on disk).
	if err := admin.RegisterContext(cx, dyn, "DCL", false); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	dctx2, err := c.Init("dyn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dctx2.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Available {
		t.Error("file produced before deregistration was not recovered by the rescan")
	}
	dctx2.Close(f)
}

// TestStatsReportControlPlaneState: the stats frame reports the live
// control-plane state an operator just reconfigured — drain status and
// the active cache replacement policy (ROADMAP PR 4 follow-up: stats
// used to omit both, leaving operators blind after drain or
// cache-policy-set).
func TestStatsReportControlPlaneState(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()
	ctx, err := c.Init("cp")
	if err != nil {
		t.Fatal(err)
	}

	st, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Draining || st.CachePolicy != "DCL" {
		t.Fatalf("boot stats report draining=%v policy=%q, want false/DCL", st.Draining, st.CachePolicy)
	}

	if err := admin.Drain(cx, "cp"); err != nil {
		t.Fatal(err)
	}
	if err := admin.SetCachePolicy(cx, "cp", "LIRS"); err != nil {
		t.Fatal(err)
	}
	if st, err = ctx.Stats(); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("stats frame does not report the drain just issued")
	}
	if st.CachePolicy != "LIRS" {
		t.Errorf("stats frame reports policy %q, want the live-swapped LIRS", st.CachePolicy)
	}

	if err := admin.Resume(cx, "cp"); err != nil {
		t.Fatal(err)
	}
	if st, err = ctx.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.Draining {
		t.Error("stats frame still reports draining after resume")
	}
}

// TestSchedSetValidation: malformed scheduler reconfigurations are
// rejected with bad_request before any field is applied — a typo must
// not half-apply a config or silently land garbage in the scheduler.
func TestSchedSetValidation(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	cx := context.Background()

	intp := func(v int) *int { return &v }
	boolp := func(v bool) *bool { return &v }
	policyp := func(v sched.PreemptPolicy) *sched.PreemptPolicy { return &v }

	bad := []dvlib.SchedUpdate{
		{TotalNodes: intp(-1)},
		{DRRQuantum: intp(-8)},
		{Preempt: policyp(7)}, // travels as "unknown"
		// A valid knob riding along with a bad one must not land.
		{Coalesce: boolp(true), Preempt: policyp(7)},
	}
	for i, upd := range bad {
		if _, err := admin.SetSchedConfig(cx, upd); dvlib.ErrCodeOf(err) != netproto.CodeBadRequest {
			t.Errorf("bad update %d: code %q (%v), want bad_request", i, dvlib.ErrCodeOf(err), err)
		}
	}

	// What the typed client cannot say, by hand: a retired policy name is
	// refused like any unknown one; the knobs an older simfs-ctl still
	// sends are ignored like any unknown JSON field.
	conn := binSession(t, addr, "old-ctl")
	for i, body := range []string{
		`{"preempt_policy":"cheapest"}`,
		`{"coalesce":true,"preempt_policy":"eldest"}`,
	} {
		if resp := exchange(t, conn, uint64(i+2), netproto.OpSchedSet, json.RawMessage(body)); resp.Code != netproto.CodeBadRequest {
			t.Errorf("sched-set %s: %+v, want bad_request", body, resp)
		}
	}

	cfg, err := admin.SchedConfig(cx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (dvlib.SchedConfig{}) {
		t.Fatalf("rejected updates leaked into the config: %+v", cfg)
	}

	legacy := `{"total_nodes":32,"preempt_sunk_cost":0.8,"preempt_guided":true,"demand_join":true}`
	if resp := exchange(t, conn, 9, netproto.OpSchedSet, json.RawMessage(legacy)); !resp.OK || resp.Sched == nil || *resp.Sched != (netproto.SchedInfo{TotalNodes: 32}) {
		t.Fatalf("sched-set with retired fields: %+v (sched %+v), want them ignored and total_nodes applied", resp, resp.Sched)
	}

	// The happy path lands and echoes.
	cfg, err = admin.SetSchedConfig(cx, dvlib.SchedUpdate{
		Preempt: policyp(sched.PreemptYoungest), DRRQuantum: intp(16), TotalNodes: intp(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (dvlib.SchedConfig{Preempt: sched.PreemptYoungest, DRRQuantum: 16, TotalNodes: 64}) {
		t.Fatalf("sched-set echoed %+v, want youngest/16/64", cfg)
	}
}

// TestPreemptCapabilityAdvertised: the daemon advertises the preempt
// capability in the hello, and the client refuses to send the gated
// fields without it (they would be silently dropped by an old daemon).
func TestPreemptCapabilityAdvertised(t *testing.T) {
	_, addr := controlStack(t)
	c, err := dvlib.Dial(addr, "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.HasCapability(netproto.CapPreempt) {
		t.Fatalf("daemon caps = %v, want %q advertised", c.Capabilities(), netproto.CapPreempt)
	}
}
