package prefetch

import (
	"testing"
	"time"

	"simfs/internal/model"
)

// fixedEst is a static Estimator for agent tests.
type fixedEst struct {
	alpha time.Duration
	tau   time.Duration
	defP  int
	maxP  int
}

func (f fixedEst) AlphaEstimate() time.Duration { return f.alpha }
func (f fixedEst) TauEstimate(p int) time.Duration {
	if p <= 0 {
		p = f.defP
	}
	if p > f.maxP {
		p = f.maxP
	}
	return f.tau * time.Duration(f.defP) / time.Duration(p)
}
func (f fixedEst) DefaultParallelism() int { return f.defP }
func (f fixedEst) MaxParallelism() int     { return f.maxP }

func exampleAgent(rampUp bool, smax int) *Agent {
	g := model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1 << 20}
	est := fixedEst{alpha: 2 * time.Second, tau: time.Second, defP: 1, maxP: 1}
	return NewAgent(g, est, smax, rampUp, 0.5)
}

// fixedCover returns a Cover reporting a constant frontier.
func fixedCover(covered int) Cover {
	return func(dir, k int) int { return covered }
}

// walk feeds a sequence of (step, time) accesses with a fixed coverage
// frontier, returning the last decision.
func walk(a *Agent, steps []int, dt time.Duration, covered int) Decision {
	var d Decision
	now := time.Duration(0)
	for _, s := range steps {
		d = a.OnAccess(s, now, 0, fixedCover(covered))
		now += dt
	}
	return d
}

// pattern is the agent's confirmed direction (+1, -1) and stride, both
// zero until two equal strides confirm a pattern.
func pattern(a *Agent) (dir, k int) {
	if a.confirmed < 2 {
		return 0, 0
	}
	return a.dir, a.k
}

func TestPatternDetection(t *testing.T) {
	a := exampleAgent(false, 8)
	if dir, _ := pattern(a); dir != 0 {
		t.Fatal("fresh agent should have no direction")
	}
	a.OnAccess(10, 0, 0, fixedCover(1000))
	if dir, _ := pattern(a); dir != 0 {
		t.Fatal("one access cannot confirm a pattern")
	}
	a.OnAccess(11, time.Second, 0, fixedCover(1000))
	a.OnAccess(12, 2*time.Second, 0, fixedCover(1000))
	if dir, k := pattern(a); dir != 1 || k != 1 {
		t.Errorf("dir=%d k=%d, want forward stride 1", dir, k)
	}
}

func TestBackwardPatternDetection(t *testing.T) {
	a := exampleAgent(false, 8)
	walk(a, []int{100, 97, 94}, time.Second, 1)
	if dir, k := pattern(a); dir != -1 || k != 3 {
		t.Errorf("dir=%d k=%d, want backward stride 3", dir, k)
	}
}

func TestDirectionChangeResets(t *testing.T) {
	a := exampleAgent(false, 8)
	walk(a, []int{10, 11, 12}, time.Second, 1000)
	d := a.OnAccess(5, 4*time.Second, 0, fixedCover(1000))
	if !d.Reset {
		t.Error("direction change after a confirmed pattern must request a reset")
	}
	if dir, _ := pattern(a); dir != 0 {
		t.Error("pattern should be unconfirmed right after the change")
	}
	// Two further consistent strides re-confirm the new direction
	// (detection needs two consecutive equal strides).
	a.OnAccess(4, 5*time.Second, 0, fixedCover(1))
	a.OnAccess(3, 6*time.Second, 0, fixedCover(1))
	if dir, _ := pattern(a); dir != -1 {
		t.Error("new backward pattern not confirmed")
	}
}

func TestStrideChangeResets(t *testing.T) {
	a := exampleAgent(false, 8)
	walk(a, []int{10, 11, 12}, time.Second, 1000)
	d := a.OnAccess(14, 4*time.Second, 0, fixedCover(1000))
	if !d.Reset {
		t.Error("stride change must request a reset")
	}
}

func TestRepeatedAccessIsNeutral(t *testing.T) {
	a := exampleAgent(false, 8)
	walk(a, []int{10, 11, 12}, time.Second, 1000)
	d := a.OnAccess(12, 4*time.Second, 0, fixedCover(1000))
	if d.Reset || len(d.Launches) != 0 {
		t.Error("re-reading the same step must not disturb the pattern")
	}
	if dir, _ := pattern(a); dir != 1 {
		t.Error("pattern lost on repeated access")
	}
}

func TestNoLaunchWithPlentyOfRunway(t *testing.T) {
	a := exampleAgent(false, 8)
	// Coverage extends 100 steps ahead; lead is ~4, so no launches.
	d := walk(a, []int{1, 2, 3}, 500*time.Millisecond, 100)
	if len(d.Launches) != 0 {
		t.Errorf("unexpected launches: %v", d.Launches)
	}
}

func TestForwardLaunchWhenFrontierNear(t *testing.T) {
	a := exampleAgent(false, 8)
	// τcli = 0.5s, τsim=1s → sopt=2; n=4; coverage ends at step 4.
	a.OnAccess(1, 0, 0, fixedCover(4))
	a.OnAccess(2, 500*time.Millisecond, 0, fixedCover(4))
	d := a.OnAccess(3, time.Second, 0, fixedCover(4))
	if len(d.Launches) != 2 {
		t.Fatalf("launches = %+v, want 2 (sopt=2)", d.Launches)
	}
	if d.Launches[0] != (Range{First: 5, Last: 8}) {
		t.Errorf("first launch = %+v, want (5,8)", d.Launches[0])
	}
	if d.Launches[1] != (Range{First: 9, Last: 12}) {
		t.Errorf("second launch = %+v, want (9,12)", d.Launches[1])
	}
}

// An analysis faster than the simulation (τcli < k·τsim) reads a cached
// runway at τcli per step, so the agent stretches the paper's lead
// ⌈αsim/max(k·τsim, τcli)⌉·k to ⌈αsim/τcli⌉·k: a runway between the two
// must still launch, or every batch boundary would expose a fresh αsim.
func TestFastAnalysisLeadLaunches(t *testing.T) {
	g := model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1 << 20}
	est := fixedEst{alpha: 8 * time.Second, tau: time.Second, defP: 1, maxP: 1}
	const tauCli = 250 * time.Millisecond
	paper := PrefetchLead(1, est.alpha, est.tau, tauCli) // 8 steps
	fast := ceilDiv(est.alpha, tauCli)                   // 32 steps
	runway := (paper + fast) / 2
	a := NewAgent(g, est, 8, false, 0.5)
	d := walk(a, []int{1, 2, 3}, tauCli, 3+runway)
	if !(paper < runway && runway < fast) {
		t.Fatalf("runway %d not between the paper's lead %d and the fast-analysis lead %d", runway, paper, fast)
	}
	if len(d.Launches) == 0 {
		t.Fatalf("no launch with a %d-step runway: the fast-analysis lead is %d steps", runway, fast)
	}
	if d.Launches[0].First != 3+runway+1 {
		t.Errorf("first launch %+v does not start past the frontier %d", d.Launches[0], 3+runway)
	}
}

func TestBackwardLaunchDirection(t *testing.T) {
	a := exampleAgent(false, 8)
	// Backward analysis faster than sim: launches must cover steps below
	// the frontier, contiguous and non-overlapping.
	a.OnAccess(100, 0, 0, fixedCover(97))
	a.OnAccess(99, 500*time.Millisecond, 0, fixedCover(97))
	d := a.OnAccess(98, time.Second, 0, fixedCover(97))
	if len(d.Launches) == 0 {
		t.Fatal("backward launches expected")
	}
	// Fig. 10: s=3 for the example parameters.
	if len(d.Launches) != 3 {
		t.Errorf("launches = %d, want 3 (paper Fig. 10)", len(d.Launches))
	}
	hi := 97
	for _, r := range d.Launches {
		if r.Last != hi-1 {
			t.Errorf("launch %+v not contiguous below %d", r, hi)
		}
		if r.First > r.Last {
			t.Errorf("invalid range %+v", r)
		}
		hi = r.First
	}
}

func TestRampUpDoubling(t *testing.T) {
	a := exampleAgent(true, 8)
	est := fixedEst{alpha: 2 * time.Second, tau: time.Second, defP: 1, maxP: 1}
	_ = est
	// sopt=2 with the example parameters; ramp-up means the first
	// prefetching step launches s=1, the next s=2.
	a.OnAccess(1, 0, 0, fixedCover(4))
	a.OnAccess(2, 500*time.Millisecond, 0, fixedCover(4))
	d := a.OnAccess(3, time.Second, 0, fixedCover(4))
	if len(d.Launches) != 1 {
		t.Fatalf("ramp-up first batch = %d launches, want 1", len(d.Launches))
	}
	// Next trigger: coverage now ends at 8 (first launch); the lead is 2
	// steps, so the trigger fires when the analysis reaches step 6.
	a.OnAccess(4, 1500*time.Millisecond, 0, fixedCover(8))
	a.OnAccess(5, 2*time.Second, 0, fixedCover(8))
	d = a.OnAccess(6, 2500*time.Millisecond, 0, fixedCover(8))
	if len(d.Launches) != 2 {
		t.Fatalf("ramp-up second batch = %d launches, want 2", len(d.Launches))
	}
}

// Decision.Launches is planned in the agent's own buffer: the next
// decision overwrites it in place, so a caller consumes the launches
// before the agent's next OnAccess, and once the buffer has grown a
// launching access allocates nothing.
func TestLaunchesReuseAgentBuffer(t *testing.T) {
	a := exampleAgent(false, 8)
	a.OnAccess(1, 0, 0, fixedCover(4))
	a.OnAccess(2, 500*time.Millisecond, 0, fixedCover(4))
	first := a.OnAccess(3, time.Second, 0, fixedCover(4))
	if len(first.Launches) != 2 || first.Launches[0] != (Range{First: 5, Last: 8}) {
		t.Fatalf("first decision launches %+v, want (5,8) (9,12)", first.Launches)
	}
	next := a.OnAccess(4, 1500*time.Millisecond, 0, fixedCover(6))
	if len(next.Launches) != 2 || &next.Launches[0] != &first.Launches[0] {
		t.Fatalf("next decision launches %+v do not reuse the first decision's buffer", next.Launches)
	}
	if first.Launches[0] != (Range{First: 7, Last: 10}) {
		t.Errorf("first decision's launches read %+v after the next access, want its (7,10)", first.Launches)
	}
	step, now := 4, 1500*time.Millisecond
	cover := func(dir, k int) int { return step + 2 }
	allocs := testing.AllocsPerRun(100, func() {
		step, now = step+1, now+500*time.Millisecond
		if d := a.OnAccess(step, now, 0, cover); len(d.Launches) != 2 {
			t.Fatalf("access to step %d launched %+v, want two ranges", step, d.Launches)
		}
	})
	if allocs != 0 {
		t.Errorf("a launching access allocates %v times, want 0", allocs)
	}
}

func TestSMaxCapsLaunches(t *testing.T) {
	a := exampleAgent(false, 1)
	a.OnAccess(1, 0, 0, fixedCover(4))
	a.OnAccess(2, 500*time.Millisecond, 0, fixedCover(4))
	d := a.OnAccess(3, time.Second, 0, fixedCover(4))
	if len(d.Launches) != 1 {
		t.Errorf("smax=1 should cap launches to 1, got %d", len(d.Launches))
	}
}

func TestLaunchesClampedToTimeline(t *testing.T) {
	g := model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 10} // only 10 output steps
	est := fixedEst{alpha: 2 * time.Second, tau: time.Second, defP: 1, maxP: 1}
	a := NewAgent(g, est, 8, false, 0.5)
	a.OnAccess(7, 0, 0, fixedCover(8))
	a.OnAccess(8, 500*time.Millisecond, 0, fixedCover(8))
	d := a.OnAccess(9, time.Second, 0, fixedCover(8))
	for _, r := range d.Launches {
		if r.Last > 10 || r.First < 1 {
			t.Errorf("launch %+v escapes the timeline", r)
		}
	}
}

func TestStrategy1RaisesParallelism(t *testing.T) {
	g := model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1 << 20}
	// Simulation scales up to 8 nodes; analysis is 4× faster than the
	// default simulation speed → parallelism should rise toward 4.
	est := fixedEst{alpha: 2 * time.Second, tau: time.Second, defP: 1, maxP: 8}
	a := NewAgent(g, est, 8, false, 0.5)
	a.OnAccess(1, 0, 0, fixedCover(4))
	a.OnAccess(2, 250*time.Millisecond, 0, fixedCover(4))
	d := a.OnAccess(3, 500*time.Millisecond, 0, fixedCover(4))
	if len(d.Launches) == 0 {
		t.Fatal("launches expected")
	}
	if d.Parallelism < 4 {
		t.Errorf("parallelism = %d, want ≥4 (strategy 1)", d.Parallelism)
	}
}

func TestAgentResetClearsEverything(t *testing.T) {
	a := exampleAgent(false, 8)
	walk(a, []int{1, 2, 3}, 500*time.Millisecond, 1000)
	a.Reset()
	if dir, k := pattern(a); dir != 0 || k != 0 || a.tauCli.Value(0) != 0 {
		t.Error("Reset did not clear agent state")
	}
}
