package autoscale_test

import (
	"testing"
	"time"

	"simfs/internal/autoscale"
	"simfs/internal/des"
	"simfs/internal/dvlib"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/sched"
	"simfs/internal/server"
)

func testCtx(name string) *model.Context {
	return &model.Context{
		Name:               name,
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
		OutputBytes:        256,
		RestartBytes:       128,
		Tau:                2 * time.Millisecond,
		Alpha:              4 * time.Millisecond,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
	}
}

// startDaemon boots one daemon with a seed context on an ephemeral port.
func startDaemon(t *testing.T) (*server.Stack, string) {
	t.Helper()
	st, err := server.NewStack(t.TempDir(), 1, "DCL", testCtx("wx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunInitialSimulation("wx"); err != nil {
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

// TestAutoscaleAdminTargetRoundTrip drives a controller over a live
// daemon: the remote sample must mirror the daemon's scheduler config,
// and an actuated patch must land on it.
func TestAutoscaleAdminTargetRoundTrip(t *testing.T) {
	_, addr := startDaemon(t)
	c, err := dvlib.Dial(addr, "autoscale-e2e")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.HasCapability(netproto.CapAdmin) {
		t.Fatal("daemon does not advertise the admin capability")
	}

	target := autoscale.NewAdminTarget(c)
	s, err := target.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Ctxs["wx"]; !ok {
		t.Fatalf("remote sample missing context wx: %+v", s.Ctxs)
	}

	nodes, youngest, quantum := 6, sched.PreemptYoungest, 8
	if err := target.ApplySched(sched.Patch{
		TotalNodes: &nodes, Preempt: &youngest, DRRQuantum: &quantum,
	}); err != nil {
		t.Fatal(err)
	}
	s, err = target.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.TotalNodes != 6 || s.Cfg.Preempt != sched.PreemptYoungest || s.Cfg.DRRQuantum != 8 {
		t.Fatalf("patch did not land: %+v", s.Cfg)
	}

	if err := target.SetCachePolicy("wx", "LRU"); err != nil {
		t.Fatal(err)
	}
	s, err = target.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Ctxs["wx"].CachePolicy; got != "LRU" {
		t.Fatalf("cache policy after switch = %q, want LRU", got)
	}
}

// TestAutoscaleControllerOverLiveDaemon runs the full loop end to end:
// a wall-clock controller with a preemption governor attached over the
// admin target must arm preemption once demand misses queue on the
// node budget.
func TestAutoscaleControllerOverLiveDaemon(t *testing.T) {
	st, addr := startDaemon(t)
	// Shrink the budget so demand misses wait for nodes.
	on, one := true, 1
	if _, err := st.V.UpdateSchedConfig(sched.Patch{Priorities: &on, TotalNodes: &one}); err != nil {
		t.Fatal(err)
	}

	c, err := dvlib.Dial(addr, "autoscale-ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var decisions []autoscale.Decision
	ctrl, err := autoscale.New(autoscale.NewAdminTarget(c),
		[]autoscale.Policy{&autoscale.PreemptGovernor{HighWait: time.Nanosecond}},
		autoscale.Options{Clock: des.NewWallClock(), OnDecision: func(d autoscale.Decision) { decisions = append(decisions, d) }})
	if err != nil {
		t.Fatal(err)
	}

	wx, err := c.Init("wx")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.TickOnce(); err != nil { // baseline
		t.Fatal(err)
	}
	// Saturate the single node with misses so demand wait accrues.
	for step := 10; step < 40; step += 4 {
		if _, err := wx.Open(wx.Filename(step)); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for st.V.SchedConfig().Preempt != sched.PreemptYoungest {
		if err := ctrl.TickOnce(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never armed preemption; decisions: %+v", decisions)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(decisions) == 0 {
		t.Fatal("controller armed preemption without recording a decision")
	}
}
