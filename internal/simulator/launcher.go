package simulator

import (
	"sync"
	"time"

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
// the wall clock, one goroutine per simulation and a timer only when the
// next event lies ahead, with durations divided by TimeScale (the daemon
// and the examples). Node admission lives in the scheduler
// (internal/sched) above the DV core, so the launcher runs everything it
// is handed.
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
	// Queue draws each job's batch queueing delay, added to αsim (nil =
	// no queueing): the dominant, system-dependent part of the restart
	// latency on HPC machines (paper Sec. III-B, IV-C1). A job killed
	// while its delay elapses abandons the draw; a requeued interval's
	// relaunch draws afresh, re-entering the batch queue like any new
	// submission.
	Queue func() time.Duration
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
	t0        time.Duration // virtual time: the launch; event k is due at t0 + at(k)
	seq       uint64        // virtual time: event k fires under sequence number seq + k
	armed     des.Timer     // virtual time: the one event armed, the next to fire
	tick      func()        // virtual time: every event's callback
	start     time.Time     // wall clock: the launch; event k is due at start + at(k)
	elapsed   time.Duration // wall clock: the run's last reading, less start
	timer     *time.Timer   // wall clock: made the first time the run must wait
}

// at is event k's offset from the launch.
func (r *run) at(k int) time.Duration { return r.lead + time.Duration(min(k, r.n))*r.tau }

// Launch starts a re-simulation producing output steps [first, last] of
// ctx at the given parallelism (node count). It returns the simulation id
// immediately; all progress is reported through Events, never from inside
// Launch: the DV core calls it under a shard lock and its simulation
// routing lock, so every event must arrive later, from the clock.
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
		delay = l.Queue()
	}
	if l.FailAt != nil {
		if c := l.FailAt(ctx.Name, first, last); c >= first && c <= last {
			r.n, r.outcome = c-first, Failed
		}
	}
	r.lead, r.tau = l.scale(delay+ctx.Alpha), l.scale(ctx.TauAt(parallelism))
	if l.Engine != nil {
		// Only event 0 is armed now; fire arms each next one. The n + 2
		// sequence numbers are reserved here, so every event ties against
		// the experiment's own as if all were armed at launch, while the
		// engine's heap holds one event per running simulation.
		r.t0, r.seq = l.Engine.Now(), l.Engine.Reserve(r.n+2)
		r.tick = func() { r.fire() }
		r.arm(0)
		return r.id
	}
	r.start = wallNow()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			r.wait()
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

// wallNow reads the clock of runs without an Engine.
func wallNow() time.Time { return time.Now() } //simfs:allow wallclock the launcher's wall clock is the engine's twin by design

// wait returns when the wall-clock run's next event is due at its
// absolute deadline, or the run is killed: at once when it already is,
// else on the run's timer. An event due by the last reading needs neither
// the clock nor the lock (fire sees a kill).
func (r *run) wait() {
	if r.at(r.next) <= r.elapsed {
		return
	}
	l := r.l
	l.mu.Lock()
	r.elapsed = wallNow().Sub(r.start)
	d := r.at(r.next) - r.elapsed
	if r.killed || d <= 0 {
		l.mu.Unlock()
		return
	}
	if r.timer == nil {
		r.timer = time.NewTimer(d) //simfs:allow wallclock the launcher's wall clock is the engine's twin by design
	} else {
		r.timer.Reset(d)
	}
	l.mu.Unlock()
	<-r.timer.C
}

// fire handles the run's next event and reports whether another follows.
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
	} else if l.Engine != nil {
		r.arm(k + 1) // before Events, so a Kill from inside it stops the event
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
			r.armed.Stop()
			outcome = Failed
			if r.killed { // cancelled, not crashed
				outcome = Killed
			}
			l.mu.Unlock()
			l.Events.SimEnded(r.id, outcome)
			return false
		}
		l.Events.StepProduced(r.id, step)
	default:
		l.Events.SimEnded(r.id, outcome)
		return false
	}
	return true
}

// arm schedules the virtual-time run's event k under its reserved
// sequence number; l.mu is held.
func (r *run) arm(k int) {
	r.armed = r.l.Engine.AtSeq(r.t0+r.at(k), r.seq+uint64(k), r.tick)
}

// Kill aborts a queued or running simulation. It is idempotent, a no-op
// for an ended run, and never calls Events, because the DV core calls it
// under a shard lock: the run's next event is brought forward to now and
// reports Killed — on the engine by stopping the run's armed event and
// arming one at the current instant, on the wall clock by waking the run
// if it waits on its timer (a run that is not waiting sees the kill
// before its next event). So a kill gets its SimEnded later, from the
// clock. A run
// killed while a step is being written reports that step first, or only
// Killed if the Write fails, and keeps its produced prefix on disk.
func (l *Launcher) Kill(simID int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.running[simID]
	if !ok || r.killed {
		return
	}
	r.killed = true
	switch {
	case r.timer != nil:
		r.timer.Reset(0)
	case l.Engine != nil:
		r.armed.Stop()
		r.armed = l.Engine.Schedule(0, r.tick)
	}
}

// Wait blocks until every wall-clock simulation has delivered its
// SimEnded. Virtual-time runs end when the engine runs them.
func (l *Launcher) Wait() { l.wg.Wait() }
