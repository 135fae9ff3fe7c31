// Package experiments contains the harness that regenerates every table
// and figure of the paper's evaluation (Secs. III-D, V and VI): the
// synthetic analysis driver running over the discrete-event engine, the
// trace replay used by the caching study and the cost models, and one
// runner per figure. See DESIGN.md for the experiment index.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
	"simfs/internal/simulator"
)

// maxEvents bounds every DES run: no experiment fires more than about
// 10⁵ events in one run, so a run that reaches the bound is looping.
const maxEvents = 100_000_000

// run is one virtual-time SimFS instance — an engine, a Virtualizer on a
// DES launcher and one registered context — and the analyses it drives.
// Every DES experiment is: newRun, make and start analyses, finish, read
// the counters.
type run struct {
	eng *des.Engine
	v   *core.Virtualizer
	ctx *model.Context
	// live counts the analyses made and neither done nor aborted; err is
	// the first abort, and onAbort, shared by every analysis, records it.
	live    int
	err     error
	onAbort func(msg string)
}

// newRun builds the instance and registers a copy of ctx with the given
// replacement policy, so AddContext's in-place defaulting never touches
// the caller's (possibly shared) context. queue optionally adds a batch
// queueing delay to every re-simulation.
func newRun(ctx *model.Context, policy string, cfg sched.Config, queue func() time.Duration) (*run, error) {
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng, Queue: queue}
	v := core.NewScheduled(eng, l, cfg)
	l.Events = v
	c := *ctx
	if err := v.AddContext(&c, policy, nil); err != nil {
		return nil, err
	}
	r := &run{eng: eng, v: v, ctx: &c}
	r.onAbort = func(msg string) {
		r.live--
		if r.err == nil {
			r.err = errors.New("aborted: " + msg)
		}
	}
	return r, nil
}

// analysis makes a live analysis of the run's context; the caller starts
// it. done, if set, receives its completion time.
func (r *run) analysis(client string, steps []int, tauCli time.Duration, done func(time.Duration)) *Analysis {
	r.live++
	return &Analysis{
		Engine: r.eng, V: r.v, Ctx: r.ctx, Client: client, Steps: steps, TauCli: tauCli,
		OnDone: func(d time.Duration) {
			r.live--
			if done != nil {
				done(d)
			}
		},
		OnAbort: r.onAbort,
	}
}

// finish runs the engine until its heap drains. It reports a runaway
// event loop first, then the first abort, then analyses that never
// finished.
func (r *run) finish() error {
	if !r.eng.Run(maxEvents) {
		return errors.New("runaway event loop")
	}
	if r.err != nil {
		return r.err
	}
	if r.live > 0 {
		return fmt.Errorf("%d analyses never finished", r.live)
	}
	return nil
}

// Analysis is a synthetic analysis application driven by the DES: it
// accesses a sequence of output steps through the Virtualizer exactly like
// a DVLib client would (open → wait-if-missing → process for τcli →
// close), and records its completion time.
type Analysis struct {
	Engine *des.Engine
	V      *core.Virtualizer
	Ctx    *model.Context
	Client string
	// Steps is the access sequence (1-based output step indices).
	Steps []int
	// TauCli is the per-access processing time of the analysis.
	TauCli time.Duration
	// OnDone is called at completion with the total running time.
	OnDone func(elapsed time.Duration)
	// OnAbort, if set, receives a fatal error description prefixed with
	// the client (an open the Virtualizer refuses). Without it, aborts end
	// the analysis silently. A failed re-simulation is not fatal: the
	// access retries until the file is produced.
	OnAbort func(msg string)

	startAt  time.Duration
	pos      int
	finished bool
	// waiting and waitStart are the access blocked on a missing file;
	// notices, made once, receives its notice (one access waits at a
	// time).
	waiting   string
	waitStart time.Duration
	notices   *notify.Owner
	// Waits accumulates the time spent blocked on missing files.
	Waits time.Duration
}

// Start schedules the analysis's first access at the current virtual time.
func (a *Analysis) Start() {
	a.startAt = a.Engine.Now()
	a.Engine.Schedule(0, a.step)
}

func (a *Analysis) step() {
	if a.finished {
		return
	}
	if a.pos >= len(a.Steps) {
		a.finish()
		return
	}
	step := a.Steps[a.pos]
	file := a.Ctx.Filename(step)
	if a.notices == nil {
		a.notices = notify.NewOwner(func(_ uint64, ev notify.Event) { a.ready(ev) })
	}
	// A miss registers the notice in the open's own shard-lock hold.
	a.waiting, a.waitStart = file, a.Engine.Now()
	res, err := a.V.OpenAwait(a.Client, a.Ctx.Name, file, a.notices, 0, step)
	if err != nil {
		a.abort(fmt.Sprintf("open %s: %v", file, err))
		return
	}
	if res.Available {
		a.process(file)
		return
	}
	if !res.Awaited {
		// Nothing promises the file, so no notice will come.
		a.process(file)
	}
}

// ready is the notice of the access blocked on a.waiting.
func (a *Analysis) ready(ev notify.Event) {
	file := a.waiting
	a.Waits += a.Engine.Now() - a.waitStart
	if ev.Kind == notify.FileFailed {
		// Production failed: drop the reference and retry the access.
		_ = a.V.Release(a.Client, a.Ctx.Name, file, a.Steps[a.pos])
		a.Engine.Schedule(0, a.step)
		return
	}
	a.process(file)
}

func (a *Analysis) process(file string) {
	a.Engine.Schedule(a.TauCli, func() {
		_ = a.V.Release(a.Client, a.Ctx.Name, file, a.Steps[a.pos])
		a.pos++
		a.step()
	})
}

func (a *Analysis) finish() {
	a.finished = true
	if a.OnDone != nil {
		a.OnDone(a.Engine.Now() - a.startAt)
	}
}

func (a *Analysis) abort(msg string) {
	a.finished = true
	if a.OnAbort != nil {
		a.OnAbort(a.Client + ": " + msg)
	}
}

// Forward returns the forward access sequence 1..m starting at `start`.
func Forward(start, m int) []int {
	steps := make([]int, m)
	for i := range steps {
		steps[i] = start + i
	}
	return steps
}

// BackwardSeq returns the backward access sequence start, start-1, …
// (m steps).
func BackwardSeq(start, m int) []int {
	steps := make([]int, m)
	for i := range steps {
		steps[i] = start - i
	}
	return steps
}
