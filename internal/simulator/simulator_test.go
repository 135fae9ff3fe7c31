package simulator

import (
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
	ends     int // SimEnded calls, to tell "once per id" from "last one wins"
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
	r.ends++
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
	if l.RunningCount() != 0 {
		t.Errorf("running = %d", l.RunningCount())
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
	if l.RunningCount() != 0 {
		t.Errorf("running = %d", l.RunningCount())
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

// A thousand launches, each killed by a racing goroutine: with α = 2 µs
// and τ = 1 µs the kill lands before the start, between two steps or
// after the end, whichever the scheduler picks. Every run ends exactly
// once, as Killed or Completed, having produced a prefix of its interval —
// and under -race the run's one reused timer shows no unsynchronised use.
func TestRealTimeLauncherLaunchKillStorm(t *testing.T) {
	rec := newRecorder()
	l := &RealTimeLauncher{
		Events:    rec,
		Write:     func(c *model.Context, step int) error { return nil },
		TimeScale: 1_000_000,
	}
	const launches, last = 1000, 4
	var kills sync.WaitGroup
	for i := 0; i < launches; i++ {
		id := l.Launch(testCtx(), 1, last, 1)
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
	if rec.ends != launches || len(rec.ended) != launches {
		t.Fatalf("%d SimEnded calls for %d ids, want %d each", rec.ends, len(rec.ended), launches)
	}
	for id, outcome := range rec.ended {
		steps := rec.produced[id]
		for i, s := range steps {
			if s != i+1 {
				t.Fatalf("sim %d produced %v, not a prefix of its interval", id, steps)
			}
		}
		if outcome != Killed && (outcome != Completed || len(steps) != last) {
			t.Fatalf("sim %d: outcome %v after %d of %d steps", id, outcome, len(steps), last)
		}
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
