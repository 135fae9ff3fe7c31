package simulator

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"simfs/internal/batch"
	"simfs/internal/des"
	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/vfs"
)

func TestSyntheticDriverKeyRoundTrip(t *testing.T) {
	ctx := CosmoScaling()
	d := NewSynthetic(ctx)
	name := ctx.Filename(7)
	k, err := d.Key(name)
	if err != nil || k != 7 {
		t.Fatalf("Key = %d, %v", k, err)
	}
	if _, err := d.Key("garbage"); err == nil {
		t.Error("bad name should fail")
	}
}

func TestSyntheticJobScript(t *testing.T) {
	ctx := CosmoScaling()
	d := NewSynthetic(ctx)
	script := d.JobScript(13, 24, 0)
	for _, want := range []string{"--context cosmo", "--to-step 24", "--nodes 100"} {
		if !strings.Contains(script, want) {
			t.Errorf("script missing %q:\n%s", want, script)
		}
	}
}

func TestSyntheticNodesPowerOfTwo(t *testing.T) {
	ctx := &model.Context{
		Name: "n", Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 100},
		OutputBytes: 1, Tau: time.Second,
		DefaultParallelism: 4, MaxParallelism: 32,
	}
	ctx.ApplyDefaults()
	d := NewSynthetic(ctx)
	want := []int{4, 8, 16, 32, 32} // levels 0..4, clamped at max
	for lvl, w := range want {
		if got := d.Nodes(lvl); got != w {
			t.Errorf("Nodes(%d) = %d, want %d", lvl, got, w)
		}
	}
}

func TestSyntheticChecksum(t *testing.T) {
	d := NewSynthetic(CosmoScaling())
	a := d.Checksum([]byte("hello"))
	b := d.Checksum([]byte("hello"))
	c := d.Checksum([]byte("world"))
	if a != b || a == c {
		t.Error("checksum not deterministic or not discriminating")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, ctx := range []*model.Context{CosmoScaling(), CosmoCost(), Flash(), CacheEval()} {
		if err := ctx.Validate(); err != nil {
			t.Errorf("preset %s: %v", ctx.Name, err)
		}
	}
	// Published parameters spot checks.
	if c := CosmoScaling(); c.Grid.OutputsPerRestart() != 12 {
		t.Errorf("COSMO outputs/restart = %d, want 12 (Δd=5min, Δr=60min)", c.Grid.OutputsPerRestart())
	}
	if f := Flash(); f.Grid.OutputsPerRestart() != 20 {
		t.Errorf("FLASH outputs/restart = %d, want 20", f.Grid.OutputsPerRestart())
	}
	if ce := CacheEval(); ce.Grid.NumOutputSteps() != 1152 {
		t.Errorf("cache-eval output steps = %d, want 1152 (4 days / 5 min)", ce.Grid.NumOutputSteps())
	}
}

// recorder collects launcher events.
type recorder struct {
	mu       sync.Mutex
	started  []int64
	produced map[int64][]int
	ended    map[int64]Outcome
	// onStep, if set, fires after each StepProduced (outside the lock).
	onStep func()
}

func newRecorder() *recorder {
	return &recorder{produced: map[int64][]int{}, ended: map[int64]Outcome{}}
}
func (r *recorder) SimStarted(id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started = append(r.started, id)
}
func (r *recorder) StepProduced(id int64, step int) {
	r.mu.Lock()
	r.produced[id] = append(r.produced[id], step)
	cb := r.onStep
	r.mu.Unlock()
	if cb != nil {
		cb()
	}
}
func (r *recorder) SimEnded(id int64, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ended[id] = o
}

func testCtx() *model.Context {
	c := &model.Context{
		Name: "t", Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 100},
		OutputBytes: 1, Tau: time.Second, Alpha: 2 * time.Second,
		DefaultParallelism: 1, MaxParallelism: 1,
	}
	c.ApplyDefaults()
	return c
}

func TestDESLauncherTiming(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec}
	ctx := testCtx()
	id := l.Launch(ctx, 1, 4, 1)
	eng.Run(0)
	if len(rec.started) != 1 || rec.started[0] != id {
		t.Fatalf("started = %v", rec.started)
	}
	if got := rec.produced[id]; len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("produced = %v", got)
	}
	if rec.ended[id] != Completed {
		t.Errorf("outcome = %v", rec.ended[id])
	}
	// α=2s + 4·τ(1s) = 6s total.
	if eng.Now() != 6*time.Second {
		t.Errorf("end time = %v, want 6s", eng.Now())
	}
}

func TestDESLauncherQueueDelay(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec, Queue: batch.Constant(5 * time.Second)}
	l.Launch(testCtx(), 1, 1, 1)
	eng.Run(0)
	// 5s queue + 2s α + 1s τ = 8s.
	if eng.Now() != 8*time.Second {
		t.Errorf("end time = %v, want 8s", eng.Now())
	}
}

func TestDESLauncherKill(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec}
	ctx := testCtx()
	id := l.Launch(ctx, 1, 10, 1)
	// Kill after the 3rd step (t = 2+3 = 5s).
	eng.Schedule(5500*time.Millisecond, func() { l.Kill(id) })
	eng.Run(0)
	if got := rec.produced[id]; len(got) != 3 {
		t.Fatalf("produced = %v, want 3 steps before the kill", got)
	}
	if rec.ended[id] != Killed {
		t.Errorf("outcome = %v, want Killed", rec.ended[id])
	}
	if len(l.running) != 0 {
		t.Errorf("running = %d", len(l.running))
	}
	// Double kill is a no-op.
	l.Kill(id)
}

func TestDESLauncherFailureInjection(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec, FailAt: faults.NewSimPlan().WithEvery(1).FailAt}
	id := l.Launch(testCtx(), 1, 10, 1)
	eng.Run(0)
	if rec.ended[id] != Failed {
		t.Fatalf("outcome = %v, want Failed", rec.ended[id])
	}
	if got := rec.produced[id]; len(got) >= 10 || len(got) == 0 {
		t.Errorf("failed sim produced %d steps, want partial output", len(got))
	}
}

func TestDESLauncherKillBeforeStart(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec}
	ctx := testCtx() // α=2s: the kill lands during the restart latency
	id := l.Launch(ctx, 1, 10, 1)
	eng.Schedule(time.Second, func() { l.Kill(id) })
	eng.Run(0)
	if len(rec.started) != 0 {
		t.Error("killed-before-start sim reported SimStarted")
	}
	if len(rec.produced[id]) != 0 {
		t.Errorf("produced = %v, want none before the restart latency", rec.produced[id])
	}
	if rec.ended[id] != Killed {
		t.Errorf("outcome = %v, want Killed", rec.ended[id])
	}
	if len(l.running) != 0 {
		t.Errorf("running = %d", len(l.running))
	}
}

// A preemption kill may land while the victim still sits in the batch
// queue (its queueing delay elapsing): the cancellation must be
// cooperative there too — no start, no output, one Killed event.
func TestDESLauncherKillDuringQueueDelay(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec, Queue: batch.Constant(10 * time.Second)}
	id := l.Launch(testCtx(), 1, 10, 1)
	eng.Schedule(3*time.Second, func() { l.Kill(id) }) // mid-queueing
	eng.Run(0)
	if len(rec.started) != 0 {
		t.Error("sim killed in the batch queue reported SimStarted")
	}
	if len(rec.produced[id]) != 0 {
		t.Errorf("produced = %v, want none", rec.produced[id])
	}
	if rec.ended[id] != Killed {
		t.Errorf("outcome = %v, want Killed", rec.ended[id])
	}
	// The kill is reported at the kill time, not after the queue delay.
	if eng.Now() != 3*time.Second {
		t.Errorf("end time = %v, want 3s", eng.Now())
	}
}

func TestDESLauncherKillUnknownIDIsNoop(t *testing.T) {
	eng := des.NewEngine()
	l := &DESLauncher{Engine: eng, Events: newRecorder()}
	l.Kill(42) // never launched
	eng.Run(0)
}

func TestDESLauncherFailEveryPattern(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec, FailAt: faults.NewSimPlan().WithEvery(2).FailAt}
	ctx := testCtx()
	a := l.Launch(ctx, 1, 8, 1) // id 1: survives
	b := l.Launch(ctx, 1, 8, 1) // id 2: injected crash
	c := l.Launch(ctx, 1, 8, 1) // id 3: survives
	eng.Run(0)
	if rec.ended[a] != Completed || rec.ended[c] != Completed {
		t.Errorf("odd sims = %v/%v, want Completed", rec.ended[a], rec.ended[c])
	}
	if rec.ended[b] != Failed {
		t.Fatalf("second sim = %v, want Failed", rec.ended[b])
	}
	// The crash is injected after half the range: steps 1..4 of [1,8]
	// (failAt = first + (last-first)/2).
	if got := rec.produced[b]; len(got) != 4 || got[len(got)-1] != 4 {
		t.Errorf("failed sim produced %v, want steps 1..4", got)
	}
	if got := rec.produced[a]; len(got) != 8 {
		t.Errorf("surviving sim produced %d steps, want 8", len(got))
	}
}

func TestDESLauncherKillAfterEndIsNoop(t *testing.T) {
	eng := des.NewEngine()
	rec := newRecorder()
	l := &DESLauncher{Engine: eng, Events: rec}
	id := l.Launch(testCtx(), 1, 2, 1)
	eng.Run(0)
	if rec.ended[id] != Completed {
		t.Fatalf("outcome = %v", rec.ended[id])
	}
	l.Kill(id) // already ended
	eng.Run(0)
	if rec.ended[id] != Completed {
		t.Error("kill after completion changed the outcome")
	}
}

func TestRealTimeLauncherProducesFiles(t *testing.T) {
	area := vfs.NewMem()
	rec := newRecorder()
	ctx := testCtx()
	ctx.Tau = 2 * time.Millisecond
	ctx.Alpha = time.Millisecond
	l := &RealTimeLauncher{
		Events: rec,
		Write: func(c *model.Context, step int) error {
			return area.Create(c.Filename(step), 64)
		},
	}
	id := l.Launch(ctx, 1, 3, 1)
	l.Wait()
	if rec.ended[id] != Completed {
		t.Fatalf("outcome = %v", rec.ended[id])
	}
	for s := 1; s <= 3; s++ {
		if !area.Exists(ctx.Filename(s)) {
			t.Errorf("file for step %d missing", s)
		}
	}
}

func TestRealTimeLauncherKill(t *testing.T) {
	rec := newRecorder()
	ctx := testCtx() // α=2s: plenty of time to kill before production
	l := &RealTimeLauncher{
		Events: rec,
		Write:  func(c *model.Context, step int) error { return nil },
	}
	id := l.Launch(ctx, 1, 100, 1)
	l.Kill(id)
	l.Kill(id) // idempotent
	l.Wait()
	if rec.ended[id] != Killed {
		t.Fatalf("outcome = %v, want Killed", rec.ended[id])
	}
	if len(rec.produced[id]) != 0 {
		t.Error("killed sim produced output")
	}
}

// The preemption path kills sims that are mid-production: the goroutine
// launcher must stop between steps, keep the produced prefix on disk and
// report exactly one Killed outcome.
func TestRealTimeLauncherKillMidProduction(t *testing.T) {
	rec := newRecorder()
	ctx := testCtx()
	l := &RealTimeLauncher{
		Events:    rec,
		Write:     func(c *model.Context, step int) error { return nil },
		TimeScale: 100, // α=20ms, τ=10ms
	}
	stepped := make(chan struct{}, 1)
	rec.onStep = func() {
		select {
		case stepped <- struct{}{}:
		default:
		}
	}
	id := l.Launch(ctx, 1, 1000, 1)
	<-stepped // at least one step is out
	l.Kill(id)
	l.Wait()
	if rec.ended[id] != Killed {
		t.Fatalf("outcome = %v, want Killed", rec.ended[id])
	}
	n := len(rec.produced[id])
	if n == 0 || n >= 1000 {
		t.Errorf("killed mid-production with %d steps, want a partial prefix", n)
	}
}

// storm checks a launcher's contract from inside its Events and Write.
// Its mutex is held across each Launch, as core holds simMu, and the
// callbacks look the run up under it: an event that beats Launch's
// return finds no id. Each run produces its own steps, so a step names
// its run's Write.
type storm struct {
	t       *testing.T
	mu      sync.Mutex
	first   map[int64]int // id → first step, filled while Launch is held
	written map[int]bool  // steps whose Write has returned
	runs    map[int64]*stormRun
}

type stormRun struct {
	steps   []int
	ends    int
	outcome Outcome
}

func newStorm(t *testing.T) *storm {
	return &storm{t: t, first: map[int64]int{}, written: map[int]bool{}, runs: map[int64]*stormRun{}}
}

// run returns id's record; s.mu is held.
func (s *storm) run(id int64, what string) *stormRun {
	if _, ok := s.first[id]; !ok {
		s.t.Errorf("sim %d: %s before Launch returned its id", id, what)
	}
	r := s.runs[id]
	if r == nil {
		r = &stormRun{}
		s.runs[id] = r
	}
	if r.ends > 0 {
		s.t.Errorf("sim %d: %s after SimEnded", id, what)
	}
	return r
}

func (s *storm) SimStarted(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.run(id, "SimStarted")
}

func (s *storm) StepProduced(id int64, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.run(id, "StepProduced")
	if !s.written[step] {
		s.t.Errorf("sim %d: step %d reported before its Write returned", id, step)
	}
	r.steps = append(r.steps, step)
}

func (s *storm) SimEnded(id int64, o Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.run(id, "SimEnded")
	r.ends++
	r.outcome = o
}

func (s *storm) write(_ *model.Context, step int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.written[step] = true
	return nil
}

// lateEvents fails on any call: it stands in after Wait.
type lateEvents struct{ t *testing.T }

func (e lateEvents) SimStarted(id int64) { e.t.Errorf("sim %d: SimStarted after Wait", id) }
func (e lateEvents) StepProduced(id int64, step int) {
	e.t.Errorf("sim %d: step %d after Wait", id, step)
}
func (e lateEvents) SimEnded(id int64, o Outcome) {
	e.t.Errorf("sim %d: SimEnded(%v) after Wait", id, o)
}

// Launches raced by their kills — with α = 2 µs and τ = 1 µs the kill
// lands before the start, between two steps or after the end — and ten
// thousand left to finish at a scale that makes every sleep nothing. Each
// run ends exactly once and last, as Killed or Completed, having produced
// a prefix of its interval with each step written before it is reported,
// and none reports before Launch has returned its id. Under -race the
// run's timer, re-armed by the run and reset by Kill, shows no
// unsynchronised use, and the seams swapped after Wait show that no run
// outlives it.
func TestRealTimeLauncherLaunchKillStorm(t *testing.T) {
	const last = 4
	for _, tc := range []struct {
		name      string
		launches  int
		timeScale int
		kill      bool
	}{
		{"kills", 1000, 1_000_000, true},
		{"no-kills", 10_000, 1_000_000_000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStorm(t)
			l := &RealTimeLauncher{Events: s, Write: s.write, TimeScale: tc.timeScale}
			ctx := testCtx()
			var kills sync.WaitGroup
			for i := 0; i < tc.launches; i++ {
				s.mu.Lock()
				id := l.Launch(ctx, i*last+1, i*last+last, 1)
				s.first[id] = i*last + 1
				s.mu.Unlock()
				if !tc.kill {
					continue
				}
				kills.Add(1)
				go func() {
					defer kills.Done()
					if id%3 == 0 {
						time.Sleep(time.Duration(id%7) * time.Microsecond)
					}
					l.Kill(id)
				}()
			}
			kills.Wait()
			l.Wait()
			l.Events = lateEvents{t}
			l.Write = func(_ *model.Context, step int) error {
				t.Errorf("step %d written after Wait", step)
				return nil
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			for id, first := range s.first {
				r := s.runs[id]
				if r == nil || r.ends != 1 {
					t.Fatalf("sim %d: %+v, want exactly one SimEnded", id, r)
				}
				for i, step := range r.steps {
					if step != first+i {
						t.Fatalf("sim %d produced %v, not a prefix of [%d, %d]", id, r.steps, first, first+last-1)
					}
				}
				if complete := r.outcome == Completed && len(r.steps) == last; !complete && (!tc.kill || r.outcome != Killed) {
					t.Fatalf("sim %d: outcome %v after %d of %d steps", id, r.outcome, len(r.steps), last)
				}
			}
		})
	}
}

// timeline records a run's events with the clock's reading.
type timeline struct {
	mu     sync.Mutex
	now    func() time.Duration
	events []string
	at     []time.Duration
}

func (tl *timeline) add(event string) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.events = append(tl.events, event)
	tl.at = append(tl.at, tl.now())
}

func (tl *timeline) SimStarted(int64)            { tl.add("started") }
func (tl *timeline) StepProduced(_ int64, s int) { tl.add(fmt.Sprintf("step %d", s)) }
func (tl *timeline) SimEnded(_ int64, o Outcome) { tl.add("ended " + o.String()) }

// A run crashing at step c ends at the instant step c-1 lands, or at its
// start when c is its first step — on both clocks, queued or not. On the
// engine the instants are exact; on the wall clock (τ = 100 ms) SimEnded
// follows the last event before it by well under τ.
func TestLauncherCrashTiming(t *testing.T) {
	const first, last = 1, 4
	for _, queue := range []time.Duration{0, 3 * time.Second} {
		for _, crash := range []int{first, (first + last) / 2, last} {
			ctx := testCtx() // α = 2 s, τ = 1 s
			lead := queue + ctx.Alpha
			wantEvents, wantAt := []string{"started"}, []time.Duration{lead}
			for s := first; s < crash; s++ {
				wantEvents = append(wantEvents, fmt.Sprintf("step %d", s))
				wantAt = append(wantAt, lead+time.Duration(s-first+1)*ctx.Tau)
			}
			wantEvents = append(wantEvents, "ended failed")
			wantAt = append(wantAt, lead+time.Duration(crash-first)*ctx.Tau)
			launcher := func(tl *timeline) *Launcher {
				l := &Launcher{Events: tl, FailAt: func(string, int, int) int { return crash }}
				if queue > 0 {
					l.Queue = batch.Constant(queue)
				}
				return l
			}
			name := fmt.Sprintf("crash=%d/queue=%v", crash, queue)
			t.Run("engine/"+name, func(t *testing.T) {
				eng := des.NewEngine()
				tl := &timeline{now: eng.Now}
				l := launcher(tl)
				l.Engine = eng
				l.Launch(ctx, first, last, 1)
				eng.Run(0)
				if fmt.Sprint(tl.events, tl.at) != fmt.Sprint(wantEvents, wantAt) {
					t.Errorf("events %v at %v, want %v at %v", tl.events, tl.at, wantEvents, wantAt)
				}
			})
			t.Run("wall/"+name, func(t *testing.T) {
				t.Parallel()
				start := time.Now()
				tl := &timeline{now: func() time.Duration { return time.Since(start) }}
				l := launcher(tl)
				l.TimeScale = 10
				l.Launch(ctx, first, last, 1)
				l.Wait()
				if fmt.Sprint(tl.events) != fmt.Sprint(wantEvents) {
					t.Fatalf("events %v, want %v", tl.events, wantEvents)
				}
				tau := ctx.Tau / 10
				if n := len(tl.at); tl.at[n-1]-tl.at[n-2] >= tau/2 {
					t.Errorf("SimEnded %v after %q, want < τ/2 = %v", tl.at[n-1]-tl.at[n-2], tl.events[n-2], tau/2)
				}
			})
		}
	}
}

type nopEvents struct{}

func (nopEvents) SimStarted(int64)        {}
func (nopEvents) StepProduced(int64, int) {}
func (nopEvents) SimEnded(int64, Outcome) {}

// An 8-step launch on the engine, run to its end, allocates the run
// record, its one closure and its timer handles: the whole schedule is
// armed at launch with one closure for all ten events.
func TestDESLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	eng := des.NewEngine()
	l := &Launcher{Engine: eng, Events: nopEvents{}}
	ctx := testCtx()
	launch := func() {
		l.Launch(ctx, 1, 8, 1)
		eng.Run(0)
	}
	launch() // warm the running map and the engine's slab
	if a := testing.AllocsPerRun(100, launch); a > 3 {
		t.Errorf("an 8-step launch allocates %v times, want ≤ 3", a)
	}
}

func TestRealTimeLauncherTimeScale(t *testing.T) {
	rec := newRecorder()
	ctx := testCtx() // α=2s, τ=1s → 12s unscaled for 10 steps
	l := &RealTimeLauncher{
		Events:    rec,
		TimeScale: 1000, // → 12ms
		Write:     func(c *model.Context, step int) error { return nil },
	}
	start := time.Now()
	id := l.Launch(ctx, 1, 10, 1)
	l.Wait()
	if rec.ended[id] != Completed {
		t.Fatal("sim did not complete")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("time scaling ineffective: took %v", elapsed)
	}
}

func TestRealTimeLauncherWriteFailure(t *testing.T) {
	rec := newRecorder()
	ctx := testCtx()
	ctx.Alpha, ctx.Tau = time.Millisecond, time.Millisecond
	failing := func(c *model.Context, step int) error {
		if step == 2 {
			return vfs.NewMem().Remove("nonexistent") // any error
		}
		return nil
	}
	l := &RealTimeLauncher{Events: rec, Write: failing}
	id := l.Launch(ctx, 1, 5, 1)
	l.Wait()
	if rec.ended[id] != Failed {
		t.Fatalf("outcome = %v, want Failed", rec.ended[id])
	}
	if got := rec.produced[id]; len(got) != 1 {
		t.Errorf("produced = %v, want just step 1", got)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{Completed: "completed", Killed: "killed", Failed: "failed", Outcome(99): "unknown"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}
