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

// Launcher runs re-simulations on one schedule: the batch queueing delay
// plus αsim, then one output step per τsim, ending when the last step
// lands. Only the clock differs: with an Engine the schedule runs in
// virtual time, single-threaded like the engine; without one it runs on
// the wall clock, one goroutine and one timer per simulation, with
// durations divided by TimeScale (the daemon and the examples). Node
// admission lives in the scheduler (internal/sched) above the DV core, so
// the launcher runs everything it is handed.
type Launcher struct {
	// Engine, when set, runs simulations in virtual time.
	Engine *des.Engine
	Events Events
	// Write materialises one output step before StepProduced reports it;
	// typically it wraps vfs.Disk.Create with the context's naming
	// convention. An error fails the run. Nil writes nothing.
	Write func(ctx *model.Context, step int) error
	// TimeScale divides all wall-clock durations (0 or 1 = real time). A
	// scale of 1000 turns αsim = 13 s into 13 ms.
	TimeScale int
	// Queue samples per-job batch queueing delays added to αsim
	// (nil = no queueing).
	Queue batch.Sampler
	// FailAt, when set, decides per launch whether and where the run
	// crashes (faults.SimPlan implements it): it returns the first step
	// the run does NOT produce — steps first..crash-1 land before the
	// failure, crash == first fails before producing anything — and a
	// negative return (or one outside [first, last]) runs healthy.
	FailAt func(ctxName string, first, last int) int

	mu      sync.Mutex
	nextID  int64
	running map[int64]*run
	wg      sync.WaitGroup
}

// DESLauncher and RealTimeLauncher are the Launcher's names from when each
// clock had its own type; the benchmark module still builds it by them.
type (
	DESLauncher      = Launcher
	RealTimeLauncher = Launcher
)

// run is one simulation's schedule. Its events are numbered: 0 starts it,
// k ∈ [1, n] produces step first+k-1, n+1 ends it. A crash only shortens
// n, so a crashed run ends at the instant its last step lands (at its
// start if it produced none).
type run struct {
	l         *Launcher
	id        int64
	ctx       *model.Context
	first, n  int
	outcome   Outcome // unless killed
	lead, tau time.Duration
	next      int // the event fire handles next
	killed    bool
	timers    []des.Timer // virtual time: every event, armed at launch
	timer     *time.Timer // wall clock: the next event
}

// at is event k's offset from the launch.
func (r *run) at(k int) time.Duration { return r.lead + time.Duration(min(k, r.n))*r.tau }

// Launch implements the DV core's Launcher contract: start a
// re-simulation producing output steps [first, last] of ctx at the given
// parallelism (node count). It returns the simulation id immediately; all
// progress is reported through Events, never from inside Launch.
func (l *Launcher) Launch(ctx *model.Context, first, last, parallelism int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running == nil {
		l.running = map[int64]*run{}
	}
	l.nextID++
	r := &run{l: l, id: l.nextID, ctx: ctx, first: first, n: last - first + 1, outcome: Completed}
	l.running[r.id] = r
	var delay time.Duration
	if l.Queue != nil {
		delay = l.Queue.Next()
	}
	if l.FailAt != nil {
		if c := l.FailAt(ctx.Name, first, last); c >= first && c <= last {
			r.n, r.outcome = c-first, Failed
		}
	}
	r.lead, r.tau = l.scale(delay+ctx.Alpha), l.scale(ctx.TauAt(parallelism))
	if l.Engine != nil {
		// Every event is armed now, in order: arming them one by one as
		// they fire would give them later sequence numbers and reorder
		// ties against the experiment's own events.
		fire := func() { r.fire() }
		r.timers = make([]des.Timer, r.n+2)
		for k := range r.timers {
			r.timers[k] = l.Engine.Schedule(r.at(k), fire)
		}
		return r.id
	}
	r.timer = time.NewTimer(r.lead) //simfs:allow wallclock the launcher's wall clock is the engine's twin by design
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			<-r.timer.C
			if !r.fire() {
				return
			}
		}
	}()
	return r.id
}

func (l *Launcher) scale(d time.Duration) time.Duration {
	if l.Engine == nil && l.TimeScale > 1 {
		return d / time.Duration(l.TimeScale)
	}
	return d
}

// fire handles the run's next event and reports whether another follows.
// On the wall clock it re-arms the timer only after the event's Write and
// Events calls have returned, so a run's events never overlap.
func (r *run) fire() bool {
	l := r.l
	l.mu.Lock()
	k, outcome := r.next, r.outcome
	if r.killed {
		k, outcome = r.n+1, Killed
	}
	r.next = k + 1
	if k > r.n {
		delete(l.running, r.id)
	}
	l.mu.Unlock()
	switch {
	case k == 0:
		l.Events.SimStarted(r.id)
	case k <= r.n:
		step := r.first + k - 1
		if l.Write != nil && l.Write(r.ctx, step) != nil {
			l.mu.Lock()
			delete(l.running, r.id)
			r.stop()
			l.mu.Unlock()
			l.Events.SimEnded(r.id, Failed)
			return false
		}
		l.Events.StepProduced(r.id, step)
	default:
		l.Events.SimEnded(r.id, outcome)
		return false
	}
	if r.timer != nil {
		l.mu.Lock()
		if !r.killed { // a kill's Reset(0) stands
			r.timer.Reset(r.at(k+1) - r.at(k))
		}
		l.mu.Unlock()
	}
	return true
}

// stop disarms the run's virtual-time events; l.mu is held.
func (r *run) stop() {
	for _, t := range r.timers {
		t.Stop()
	}
}

// Kill implements the DV core's Launcher contract. It is idempotent, a
// no-op for an ended run, and never calls Events: the run's next event is
// brought forward to now and reports Killed — on the engine by stopping
// every armed event and scheduling one at the current instant, on the
// wall clock by resetting the run's timer to zero. So a preemption kill
// issued under a shard lock gets its SimEnded later, from the clock. A run
// killed while a step is being written reports that step first, and keeps
// its produced prefix on disk.
func (l *Launcher) Kill(simID int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.running[simID]
	if !ok || r.killed {
		return
	}
	r.killed = true
	if r.timer != nil {
		r.timer.Reset(0)
		return
	}
	r.stop()
	l.Engine.Schedule(0, func() { r.fire() })
}

// Wait blocks until every wall-clock simulation has delivered its
// SimEnded. Virtual-time runs end when the engine runs them.
func (l *Launcher) Wait() { l.wg.Wait() }
