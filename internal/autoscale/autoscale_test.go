package autoscale

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// manualClock is a settable des.Clock.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }

// fakeTarget replays a scripted sample sequence and records actuations.
type fakeTarget struct {
	samples []Sample
	i       int
	err     error

	patches  []sched.Patch
	switches []CacheSwitch
	applyErr error
}

func (f *fakeTarget) Sample() (Sample, error) {
	if f.err != nil {
		return Sample{}, f.err
	}
	if f.i >= len(f.samples) {
		return f.samples[len(f.samples)-1], nil
	}
	s := f.samples[f.i]
	f.i++
	return s, nil
}

func (f *fakeTarget) ApplySched(p sched.Patch) error {
	f.patches = append(f.patches, p)
	return f.applyErr
}

func (f *fakeTarget) SetCachePolicy(ctx, policy string) error {
	f.switches = append(f.switches, CacheSwitch{Ctx: ctx, Policy: policy})
	return nil
}

// sampleWithWait builds a sample with the given cumulative demand wait
// and scheduler config.
func sampleWithWait(cfg sched.Config, wait time.Duration) Sample {
	return Sample{
		Cfg:   cfg,
		Sched: metrics.SchedStats{DemandWait: metrics.SchedClassWait{Wait: wait}},
	}
}

// newController returns a controller and the decision log its observer
// collects.
func newController(t *testing.T, target Target, clk *manualClock, policies ...Policy) (*Controller, *[]Decision) {
	t.Helper()
	var log []Decision
	c, err := New(target, policies, Options{Clock: clk, OnDecision: func(d Decision) { log = append(log, d) }})
	if err != nil {
		t.Fatal(err)
	}
	return c, &log
}

func tickN(t *testing.T, c *Controller, clk *manualClock, n int, step time.Duration) {
	t.Helper()
	for range make([]struct{}, n) {
		clk.now += step
		if err := c.TickOnce(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestControllerNoPoliciesNeverActuates(t *testing.T) {
	ft := &fakeTarget{samples: []Sample{sampleWithWait(sched.Config{TotalNodes: 4}, 0)}}
	clk := &manualClock{}
	c, log := newController(t, ft, clk)
	tickN(t, c, clk, 10, time.Second)
	if len(ft.patches) != 0 || len(ft.switches) != 0 {
		t.Fatalf("zero-policy controller actuated: %d patches, %d switches", len(ft.patches), len(ft.switches))
	}
	if d := *log; len(d) != 0 {
		t.Fatalf("zero-policy controller recorded decisions: %v", d)
	}
}

func TestControllerSampleErrorKeepsWindow(t *testing.T) {
	cfg := sched.Config{TotalNodes: 2}
	ft := &fakeTarget{samples: []Sample{
		sampleWithWait(cfg, 0),
		sampleWithWait(cfg, 2*time.Second),
	}}
	clk := &manualClock{}
	c, _ := newController(t, ft, clk, &NodeBudget{Min: 1, Max: 8})
	tickN(t, c, clk, 1, time.Second) // baseline

	ft.err = errors.New("daemon away")
	clk.now += time.Second
	if err := c.TickOnce(); err == nil {
		t.Fatal("TickOnce with failing sample returned nil error")
	}
	ft.err = nil

	// The failed tick must not have consumed the baseline: the next
	// successful tick still sees the 2s wait growth and widens.
	tickN(t, c, clk, 1, time.Second)
	if len(ft.patches) != 1 || ft.patches[0].TotalNodes == nil || *ft.patches[0].TotalNodes != 3 {
		t.Fatalf("patches after recovery = %+v, want one widen to 3", ft.patches)
	}
}

// A refused actuation comes back from TickOnce, naming the patch, once
// the tick's decision is recorded and its window advanced.
func TestControllerReturnsActuationFailure(t *testing.T) {
	cfg := sched.Config{TotalNodes: 2}
	ft := &fakeTarget{samples: []Sample{
		sampleWithWait(cfg, 0),
		sampleWithWait(cfg, 2*time.Second),
	}, applyErr: errors.New("daemon refused")}
	clk := &manualClock{}
	c, log := newController(t, ft, clk, &NodeBudget{Min: 1, Max: 8})
	tickN(t, c, clk, 1, time.Second) // baseline

	clk.now += time.Second
	err := c.TickOnce()
	if err == nil || !errors.Is(err, ft.applyErr) || !strings.Contains(err.Error(), "sched{nodes=3}") {
		t.Fatalf("TickOnce with a refused patch = %v, want the refusal naming sched{nodes=3}", err)
	}
	if d := *log; len(d) != 1 || d[0].Action != "sched{nodes=3}" {
		t.Fatalf("decisions = %+v, want the one widen recorded", d)
	}
	if c.prev.Sched.DemandWait.Wait != 2*time.Second {
		t.Fatal("a failed actuation held the window back")
	}
}

func TestControllerMergesFirstPolicyWins(t *testing.T) {
	cfg := sched.Config{TotalNodes: 2}
	ft := &fakeTarget{samples: []Sample{
		sampleWithWait(cfg, 0),
		sampleWithWait(cfg, 2*time.Second),
	}}
	clk := &manualClock{}
	// Two budget governors with different steps both claim TotalNodes;
	// the first armed must win and only ONE ApplySched may happen.
	c, log := newController(t, ft, clk,
		&NodeBudget{Min: 1, Max: 8, Step: 1},
		&NodeBudget{Min: 1, Max: 8, Step: 4})
	tickN(t, c, clk, 2, time.Second)
	if len(ft.patches) != 1 {
		t.Fatalf("ApplySched called %d times in one tick, want 1 (single-writer rule)", len(ft.patches))
	}
	if *ft.patches[0].TotalNodes != 3 {
		t.Fatalf("merged nodes = %d, want 3 (first policy's step)", *ft.patches[0].TotalNodes)
	}
	if len(*log) != 2 {
		t.Fatalf("decisions = %d, want 2 (both policies logged)", len(*log))
	}
}

func TestNodeBudgetWidenShrinkBounds(t *testing.T) {
	p := &NodeBudget{Min: 2, Max: 4, CalmTicks: 2, HighWait: time.Second}
	cfg := sched.Config{TotalNodes: 2}
	wait := time.Duration(0)
	now := time.Duration(0)
	tick := func(growth time.Duration) []Action {
		prev := sampleWithWait(cfg, wait)
		wait += growth
		now += time.Second
		return p.Evaluate(Tick{Now: now, Prev: prev, Cur: sampleWithWait(cfg, wait)})
	}
	apply := func(acts []Action) {
		for _, a := range acts {
			if a.Patch != nil && a.Patch.TotalNodes != nil {
				cfg.TotalNodes = *a.Patch.TotalNodes
			}
		}
	}

	apply(tick(2 * time.Second)) // hot: widen 2→3
	if cfg.TotalNodes != 3 {
		t.Fatalf("after hot tick nodes = %d, want 3", cfg.TotalNodes)
	}
	apply(tick(2 * time.Second)) // hot: widen 3→4 (= Max)
	apply(tick(2 * time.Second)) // hot but pinned at Max: no action
	if cfg.TotalNodes != 4 {
		t.Fatalf("nodes exceeded Max: %d", cfg.TotalNodes)
	}
	apply(tick(0)) // calm 1
	if cfg.TotalNodes != 4 {
		t.Fatalf("shrank before the calm streak completed: %d", cfg.TotalNodes)
	}
	apply(tick(0)) // calm 2: shrink 4→3
	if cfg.TotalNodes != 3 {
		t.Fatalf("after calm streak nodes = %d, want 3", cfg.TotalNodes)
	}
	apply(tick(0))
	apply(tick(0)) // shrink 3→2 (= Min)
	apply(tick(0))
	apply(tick(0)) // calm but pinned at Min: no action
	if cfg.TotalNodes != 2 {
		t.Fatalf("nodes fell below Min: %d", cfg.TotalNodes)
	}
}

func TestNodeBudgetInertWhenUnlimited(t *testing.T) {
	p := &NodeBudget{Min: 1, Max: 8}
	acts := p.Evaluate(Tick{
		Now:  time.Second,
		Prev: sampleWithWait(sched.Config{}, 0),
		Cur:  sampleWithWait(sched.Config{}, time.Hour),
	})
	if len(acts) != 0 {
		t.Fatalf("budget governor acted on an unlimited budget: %v", acts)
	}
}

func TestNodeBudgetCooldown(t *testing.T) {
	p := &NodeBudget{Min: 1, Max: 8, HighWait: time.Second, Cooldown: 10 * time.Second}
	cfg := sched.Config{TotalNodes: 2}
	hot := func(now time.Duration) []Action {
		return p.Evaluate(Tick{Now: now,
			Prev: sampleWithWait(cfg, 0),
			Cur:  sampleWithWait(cfg, 2*time.Second)})
	}
	if acts := hot(time.Second); len(acts) != 1 {
		t.Fatalf("first hot tick: %d actions, want 1", len(acts))
	}
	if acts := hot(2 * time.Second); len(acts) != 0 {
		t.Fatalf("actuated inside the cooldown window: %v", acts)
	}
	if acts := hot(12 * time.Second); len(acts) != 1 {
		t.Fatalf("cooldown expired but no action: %v", acts)
	}
}

func TestPreemptGovernorArmDisarm(t *testing.T) {
	p := &PreemptGovernor{HighWait: time.Second, CalmTicks: 2}
	cfg := sched.Config{}
	now := time.Duration(0)
	tick := func(growth time.Duration) []Action {
		now += time.Second
		prev := sampleWithWait(cfg, 0)
		cur := sampleWithWait(cfg, growth)
		return p.Evaluate(Tick{Now: now, Prev: prev, Cur: cur})
	}

	acts := tick(2 * time.Second)
	if len(acts) != 1 {
		t.Fatalf("contended tick: %d actions, want 1", len(acts))
	}
	patch := acts[0].Patch
	if patch.Preempt == nil || *patch.Preempt != sched.PreemptYoungest {
		t.Fatalf("arm patch preempt = %v, want youngest", patch.Preempt)
	}
	cfg, _ = patch.Apply(cfg)

	if acts := tick(0); len(acts) != 0 { // calm 1 of 2
		t.Fatalf("disarmed before calm streak: %v", acts)
	}
	acts = tick(0) // calm 2: disarm
	if len(acts) != 1 {
		t.Fatalf("calm streak complete: %d actions, want 1", len(acts))
	}
	patch = acts[0].Patch
	if patch.Preempt == nil || *patch.Preempt != sched.PreemptOff {
		t.Fatalf("disarm patch preempt = %v, want off", patch.Preempt)
	}
}

func TestPreemptGovernorRespectsOperatorConfig(t *testing.T) {
	p := &PreemptGovernor{HighWait: time.Second}
	cfg := sched.Config{Preempt: sched.PreemptYoungest} // operator's choice
	acts := p.Evaluate(Tick{Now: time.Second,
		Prev: sampleWithWait(cfg, 0),
		Cur:  sampleWithWait(cfg, time.Hour)})
	if len(acts) != 0 {
		t.Fatalf("governor overrode operator preemption config: %v", acts)
	}
	// And it never disarms a policy it did not arm.
	for i := 0; i < 10; i++ {
		acts = p.Evaluate(Tick{Now: time.Duration(i+2) * time.Second,
			Prev: sampleWithWait(cfg, 0),
			Cur:  sampleWithWait(cfg, 0)})
		if len(acts) != 0 {
			t.Fatalf("governor disarmed operator preemption: %v", acts)
		}
	}
}

func cacheSample(cfg sched.Config, opens, hits int64, policy string) Sample {
	return Sample{
		Cfg:  cfg,
		Ctxs: map[string]CtxSample{"c": {Opens: opens, Hits: hits, CachePolicy: policy}},
	}
}

func TestCacheSwitcherRotatesOnLowHitRatio(t *testing.T) {
	p := &CacheSwitcher{Policies: []string{"DCL", "LRU"}, LowHit: 0.5, MinOpens: 10, BadTicks: 2}
	var cfg sched.Config
	// Two windows of 20 opens / 2 hits each: bad streak reaches 2.
	acts := p.Evaluate(Tick{Now: time.Second,
		Prev: cacheSample(cfg, 0, 0, "DCL"),
		Cur:  cacheSample(cfg, 20, 2, "DCL")})
	if len(acts) != 0 {
		t.Fatalf("switched after one bad window: %v", acts)
	}
	acts = p.Evaluate(Tick{Now: 2 * time.Second,
		Prev: cacheSample(cfg, 20, 2, "DCL"),
		Cur:  cacheSample(cfg, 40, 4, "DCL")})
	if len(acts) != 1 || acts[0].Cache == nil {
		t.Fatalf("bad streak complete: %v, want one cache switch", acts)
	}
	if acts[0].Cache.Ctx != "c" || acts[0].Cache.Policy != "LRU" {
		t.Fatalf("switch = %+v, want c → LRU", acts[0].Cache)
	}
}

func TestCacheSwitcherIgnoresQuietWindows(t *testing.T) {
	p := &CacheSwitcher{Policies: []string{"DCL", "LRU"}, LowHit: 0.5, MinOpens: 10, BadTicks: 2}
	var cfg sched.Config
	p.Evaluate(Tick{Now: time.Second,
		Prev: cacheSample(cfg, 0, 0, "DCL"),
		Cur:  cacheSample(cfg, 20, 0, "DCL")}) // bad 1
	// A quiet window (below MinOpens) resets the streak...
	p.Evaluate(Tick{Now: 2 * time.Second,
		Prev: cacheSample(cfg, 20, 0, "DCL"),
		Cur:  cacheSample(cfg, 22, 0, "DCL")})
	// ...so another bad window must NOT trigger yet.
	acts := p.Evaluate(Tick{Now: 3 * time.Second,
		Prev: cacheSample(cfg, 22, 0, "DCL"),
		Cur:  cacheSample(cfg, 42, 0, "DCL")})
	if len(acts) != 0 {
		t.Fatalf("quiet window did not reset the bad streak: %v", acts)
	}
}

func loadSample(cfg sched.Config, loads map[string]uint64) Sample {
	return Sample{Cfg: cfg, Loads: loads}
}

func TestDRRTunerArmsOnSkewDisarmsOnEven(t *testing.T) {
	p := &DRRTuner{Quantum: 8, HighSkew: 2, MinSteps: 10, CalmTicks: 2}
	cfg := sched.Config{Priorities: true}
	// Window: hog 90 steps, mouse 10 → skew = 90×2/100 = 1.8 < 2: no.
	acts := p.Evaluate(Tick{Now: time.Second,
		Prev: loadSample(cfg, nil),
		Cur:  loadSample(cfg, map[string]uint64{"hog": 90, "mouse": 10})})
	if len(acts) != 0 {
		t.Fatalf("tuner armed below threshold: %v", acts)
	}
	// Window: hog 95, mouse 5 → skew = 95×2/100 = 1.9... still under.
	// Use 3 clients: hog 90, m1 5, m2 5 → 90×3/100 = 2.7 ≥ 2: arm.
	acts = p.Evaluate(Tick{Now: 2 * time.Second,
		Prev: loadSample(cfg, map[string]uint64{"hog": 90, "mouse": 10}),
		Cur:  loadSample(cfg, map[string]uint64{"hog": 180, "mouse": 15, "m2": 5})})
	if len(acts) != 1 || acts[0].Patch.DRRQuantum == nil || *acts[0].Patch.DRRQuantum != 8 {
		t.Fatalf("skewed window: %v, want quantum=8 armed", acts)
	}
	cfg.DRRQuantum = 8
	// Even windows: disarm after the calm streak.
	even := func(now time.Duration, base uint64) []Action {
		return p.Evaluate(Tick{Now: now,
			Prev: loadSample(cfg, map[string]uint64{"hog": base, "mouse": base}),
			Cur:  loadSample(cfg, map[string]uint64{"hog": base + 50, "mouse": base + 50})})
	}
	if acts := even(3*time.Second, 200); len(acts) != 0 {
		t.Fatalf("disarmed before calm streak: %v", acts)
	}
	acts = even(4*time.Second, 300)
	if len(acts) != 1 || acts[0].Patch.DRRQuantum == nil || *acts[0].Patch.DRRQuantum != 0 {
		t.Fatalf("calm streak complete: %v, want quantum=0", acts)
	}
}

func TestDRRTunerRequiresPriorities(t *testing.T) {
	p := &DRRTuner{HighSkew: 1.5, MinSteps: 10}
	cfg := sched.Config{} // FIFO: DRR cannot apply
	acts := p.Evaluate(Tick{Now: time.Second,
		Prev: loadSample(cfg, nil),
		Cur:  loadSample(cfg, map[string]uint64{"hog": 100, "mouse": 1})})
	if len(acts) != 0 {
		t.Fatalf("tuner armed without priority queueing: %v", acts)
	}
}

// The hysteresis every policy embeds: arm once, hold through the
// cooldown, disarm only what was armed and only after the calm streak.
func TestLatchArmCooldownDisarm(t *testing.T) {
	var l latch
	if l.disarm(time.Second, 1) {
		t.Fatal("disarmed a latch that never armed")
	}
	if l.arm(time.Second, true) || l.armed {
		t.Fatal("armed over an operator-set knob")
	}
	if !l.arm(2*time.Second, false) || l.arm(3*time.Second, false) {
		t.Fatal("arm must fire exactly once")
	}
	if !l.cooling(5*time.Second, 10*time.Second) || l.cooling(12*time.Second, 10*time.Second) {
		t.Fatal("cooldown window is [lastAct, lastAct+cooldown)")
	}
	if l.disarm(13*time.Second, 2) {
		t.Fatal("disarmed before the calm streak completed")
	}
	l.arm(14*time.Second, false) // contention again: the streak restarts
	if l.disarm(15*time.Second, 2) || !l.disarm(16*time.Second, 2) || l.armed {
		t.Fatal("disarm must fire on the second consecutive calm tick")
	}
}

// The controller's decision log prints sched.Patch.String and
// AdminTarget sends the patch's JSON as the sched-set body.
func TestSchedPatchStringAndBody(t *testing.T) {
	p := sched.Patch{
		TotalNodes: ptr(6),
		Preempt:    ptr(sched.PreemptYoungest),
		DRRQuantum: ptr(4),
	}
	if got, want := (Action{Patch: &p}).describe(), "sched{nodes=6 preempt=youngest quantum=4}"; got != want {
		t.Errorf("describe() = %q, want %q", got, want)
	}
	body, err := json.Marshal(p)
	if want := `{"total_nodes":6,"preempt_policy":"youngest","drr_quantum":4}`; err != nil || string(body) != want {
		t.Fatalf("sched-set body = %s, %v; want %s", body, err, want)
	}
}
