// Package experiments contains the harness that regenerates every table
// and figure of the paper's evaluation (Secs. III-D, V and VI): the
// synthetic analysis driver running over the discrete-event engine, the
// trace replay used by the caching study and the cost models, and one
// runner per figure. See DESIGN.md for the experiment index.
package experiments

import (
	"fmt"
	"time"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/notify"
)

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
	// MaxRetries bounds re-opens after failed re-simulations.
	MaxRetries int
	// OnDone is called at completion with the total running time.
	OnDone func(elapsed time.Duration)
	// OnAbort, if set, receives a fatal error description (unservable
	// file, retry budget exhausted). Without it, aborts end the analysis
	// silently.
	OnAbort func(msg string)

	startAt  time.Duration
	pos      int
	retries  int
	finished bool
	// waiting and waitStart are the access blocked on a missing file;
	// notices, made once, receives its notice (one access waits at a
	// time).
	waiting   string
	waitStart time.Duration
	notices   *notify.Owner
	// Waits accumulates the time spent blocked on missing files.
	Waits time.Duration
	// Misses counts accesses that found the file not on disk.
	Misses int
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
	file := a.Ctx.Filename(a.Steps[a.pos])
	if a.notices == nil {
		a.notices = notify.NewOwner(func(_ uint64, ev notify.Event) { a.ready(ev) })
	}
	// A miss registers the notice in the open's own shard-lock hold.
	a.waiting, a.waitStart = file, a.Engine.Now()
	res, err := a.V.OpenAwait(a.Client, a.Ctx.Name, file, a.notices, 0)
	if err != nil {
		a.abort(fmt.Sprintf("open %s: %v", file, err))
		return
	}
	if res.Available {
		a.process(file)
		return
	}
	a.Misses++
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
		_ = a.V.Release(a.Client, a.Ctx.Name, file)
		a.retries++
		if a.MaxRetries > 0 && a.retries > a.MaxRetries {
			a.abort("too many failed re-simulations: " + ev.Err)
			return
		}
		a.Engine.Schedule(0, a.step)
		return
	}
	a.process(file)
}

func (a *Analysis) process(file string) {
	a.Engine.Schedule(a.TauCli, func() {
		_ = a.V.Release(a.Client, a.Ctx.Name, file)
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
		a.OnAbort(msg)
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
