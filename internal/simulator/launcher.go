package simulator

import (
	"sync"
	"time"

	"simfs/internal/batch"
	"simfs/internal/des"
	"simfs/internal/model"
)

// Outcome classifies how a re-simulation ended.
type Outcome int

// Simulation outcomes.
const (
	Completed Outcome = iota // produced its whole range
	Killed                   // killed by the DV (over-prefetch, reset)
	Failed                   // crashed (failure injection)
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Killed:
		return "killed"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Events receives simulation life-cycle callbacks. The DV core implements
// it; launchers call it. StepProduced corresponds to DVLib intercepting
// the simulator's close call and notifying the DV (paper Sec. III-A).
type Events interface {
	// SimStarted fires when the restart latency has elapsed and
	// production begins (after any batch queueing delay).
	SimStarted(simID int64)
	// StepProduced fires when output step `step` is written and closed.
	StepProduced(simID int64, step int)
	// SimEnded fires exactly once per simulation.
	SimEnded(simID int64, outcome Outcome)
}

// DESLauncher executes re-simulations in virtual time on a DES engine.
// It is single-threaded by construction (the engine is). Node-capacity
// admission lives in the scheduler (internal/sched) above the DV core,
// so the launcher runs everything it is handed.
type DESLauncher struct {
	Engine *des.Engine
	Events Events
	// Queue samples per-job batch queueing delays added to αsim
	// (nil = no queueing).
	Queue batch.Sampler
	// FailAt, when set, decides per launch whether and where the run
	// crashes (faults.SimPlan implements it): it returns the first step
	// the run does NOT produce — steps first..crash-1 land before the
	// failure, crash == first fails before producing anything — and a
	// negative return (or one outside [first, last]) runs healthy.
	FailAt func(ctxName string, first, last int) int

	nextID  int64
	running map[int64]*desRun
}

type desRun struct {
	timers  []des.Timer
	nodes   int
	ended   bool
	started bool
}

// Launch implements the DV core's Launcher contract: start a
// re-simulation producing output steps [first, last] of ctx at the given
// parallelism (node count). It returns the simulation id immediately; all
// progress is reported through Events.
func (l *DESLauncher) Launch(ctx *model.Context, first, last, parallelism int) int64 {
	if l.running == nil {
		l.running = map[int64]*desRun{}
	}
	l.nextID++
	id := l.nextID
	run := &desRun{nodes: parallelism}
	l.running[id] = run

	start := func() {
		if run.ended {
			return
		}
		var delay time.Duration
		if l.Queue != nil {
			delay = l.Queue.Next()
		}
		alpha := ctx.Alpha
		tau := ctx.TauAt(parallelism)
		crash := -1 // first step not produced; -1 = healthy run
		if l.FailAt != nil {
			if c := l.FailAt(ctx.Name, first, last); c >= first && c <= last {
				crash = c
			}
		}
		run.timers = append(run.timers, l.Engine.Schedule(delay+alpha, func() {
			run.started = true
			l.Events.SimStarted(id)
		}))
		for s := first; s <= last; s++ {
			s := s
			prodAt := delay + alpha + time.Duration(s-first+1)*tau
			if crash >= 0 && s >= crash {
				break
			}
			run.timers = append(run.timers, l.Engine.Schedule(prodAt, func() {
				l.Events.StepProduced(id, s)
			}))
		}
		endAt := delay + alpha + time.Duration(last-first+1)*tau
		outcome := Completed
		if crash >= 0 {
			endAt = delay + alpha + time.Duration(crash-first)*tau
			outcome = Failed
		}
		run.timers = append(run.timers, l.Engine.Schedule(endAt, func() {
			l.end(id, outcome)
		}))
	}

	start()
	return id
}

// Kill implements the DV core's Launcher contract. The termination event
// is delivered asynchronously (at the current virtual time) so that
// callers holding locks never receive a synchronous SimEnded callback —
// the preemption path relies on this: it kills a victim under the
// victim's shard lock and handles the requeue when SimEnded arrives.
// Cancellation is cooperative at every stage: a sim still in the batch
// queue, one waiting out its restart latency, and one mid-production all
// stop producing immediately and report exactly one Killed outcome.
func (l *DESLauncher) Kill(simID int64) {
	run, ok := l.running[simID]
	if !ok || run.ended {
		return
	}
	// Stop further production immediately; report the end via the engine.
	for _, t := range run.timers {
		t.Stop()
	}
	l.Engine.Schedule(0, func() { l.end(simID, Killed) })
}

// RunningCount returns the number of simulations not yet ended.
func (l *DESLauncher) RunningCount() int { return len(l.running) }

func (l *DESLauncher) end(simID int64, outcome Outcome) {
	run, ok := l.running[simID]
	if !ok || run.ended {
		return
	}
	run.ended = true
	for _, t := range run.timers {
		t.Stop()
	}
	delete(l.running, simID)
	l.Events.SimEnded(simID, outcome)
}

// RealTimeLauncher executes re-simulations as goroutines over wall-clock
// time, writing real files through a FileWriter. It is used by the daemon
// and the examples, with time scaled down so a "3 s per output step"
// simulation produces a file every few milliseconds.
type RealTimeLauncher struct {
	Events Events
	// Write is called to materialize one output step; typically it wraps
	// vfs.Disk.Create with the context's naming convention.
	Write func(ctx *model.Context, step int) error
	// TimeScale divides all durations (0 or 1 = real time). A scale of
	// 1000 turns αsim = 13 s into 13 ms.
	TimeScale int
	// Queue samples per-job batch queueing delays (nil = none).
	Queue batch.Sampler
	// FailAt, when set, decides per launch whether and where the run
	// crashes, with the same contract as DESLauncher.FailAt: the return
	// value is the first step NOT produced; negative or out-of-range
	// runs healthy.
	FailAt func(ctxName string, first, last int) int

	mu      sync.Mutex
	nextID  int64
	cancels map[int64]chan struct{}
	wg      sync.WaitGroup
}

func (l *RealTimeLauncher) scale(d time.Duration) time.Duration {
	if l.TimeScale > 1 {
		return d / time.Duration(l.TimeScale)
	}
	return d
}

// Launch implements the DV core's Launcher contract.
func (l *RealTimeLauncher) Launch(ctx *model.Context, first, last, parallelism int) int64 {
	l.mu.Lock()
	if l.cancels == nil {
		l.cancels = map[int64]chan struct{}{}
	}
	l.nextID++
	id := l.nextID
	cancel := make(chan struct{})
	l.cancels[id] = cancel
	var delay time.Duration
	if l.Queue != nil {
		delay = l.Queue.Next()
	}
	l.mu.Unlock()

	crash := -1 // first step not produced; -1 = healthy run
	if l.FailAt != nil {
		if c := l.FailAt(ctx.Name, first, last); c >= first && c <= last {
			crash = c
		}
	}

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		// One timer for the run's sleeps (restart latency, then one per
		// step). Every sleep either drains it or ends the run, so Reset
		// never finds a stale tick.
		timer := time.NewTimer(l.scale(delay + ctx.Alpha)) //simfs:allow wallclock the real-time launcher is DESLauncher's wall-clock twin by design
		defer timer.Stop()
		sleep := func() bool {
			select {
			case <-timer.C:
				return true
			case <-cancel:
				return false
			}
		}
		if !sleep() {
			l.finish(id, Killed)
			return
		}
		l.Events.SimStarted(id)
		tau := l.scale(ctx.TauAt(parallelism))
		for s := first; s <= last; s++ {
			timer.Reset(tau)
			if !sleep() {
				l.finish(id, Killed)
				return
			}
			if crash >= 0 && s >= crash {
				l.finish(id, Failed)
				return
			}
			if err := l.Write(ctx, s); err != nil {
				l.finish(id, Failed)
				return
			}
			l.Events.StepProduced(id, s)
		}
		l.finish(id, Completed)
	}()
	return id
}

// Kill implements the DV core's Launcher contract. It is idempotent and
// safe to call concurrently with the simulation ending on its own. The
// cancellation is cooperative: the sim goroutine observes it between
// sleeps (batch queue, restart latency, per-step production), so a
// preempted sim stops after the step it is writing, keeps its produced
// prefix on disk, and reports Killed from its own goroutine — never
// synchronously from under the caller's locks.
func (l *RealTimeLauncher) Kill(simID int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cancel, ok := l.cancels[simID]; ok {
		delete(l.cancels, simID)
		close(cancel)
	}
}

// Wait blocks until all launched simulations have ended.
func (l *RealTimeLauncher) Wait() { l.wg.Wait() }

func (l *RealTimeLauncher) finish(id int64, outcome Outcome) {
	l.mu.Lock()
	delete(l.cancels, id)
	l.mu.Unlock()
	l.Events.SimEnded(id, outcome)
}
