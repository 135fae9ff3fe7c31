package prefetch

import (
	"time"

	"simfs/internal/metrics"
	"simfs/internal/model"
)

// Range is an inclusive range of output step indices a re-simulation
// should produce.
type Range struct {
	First, Last int
}

// Len returns the number of output steps in the range.
func (r Range) Len() int { return r.Last - r.First + 1 }

// Decision is the agent's advice after observing one access. The DV core
// translates it into launcher calls: it deduplicates against files already
// resident or promised, enforces smax, and kills the agent's outstanding
// prefetches when Reset is set.
type Decision struct {
	// Launches are re-simulations to start, most urgent first. The slice
	// is the agent's own buffer, valid until the agent's next OnAccess.
	Launches []Range
	// Parallelism is the level to run the launches at (strategy 1).
	Parallelism int
	// Reset signals that the access pattern changed (direction, stride or
	// a jump): outstanding prefetched simulations of this agent that
	// nobody else waits for should be killed (Sec. IV-C).
	Reset bool
}

// Agent monitors one analysis application's access pattern on one context
// and decides when to prefetch (paper Sec. IV-B: "We associate each
// analysis application that is interfaced to SimFS with a prefetch
// agent"). It is a pure state machine: all inputs arrive via OnAccess and
// the estimated simulation parameters via its Estimator; it performs no
// I/O and holds no locks.
type Agent struct {
	grid model.Grid
	est  Estimator

	tauCli *metrics.EMA

	primed    bool
	lastStep  int
	lastTime  time.Duration
	dir       int // +1 forward, -1 backward, 0 unknown
	k         int // stride
	confirmed int // consecutive consistent strides observed

	// s is the current parallel-prefetch level (doubling ramp-up).
	s      int
	rampUp bool
	smax   int

	// launches is the buffer every Decision.Launches is planned in.
	launches []Range
}

// Estimator supplies the agent's view of the simulation performance model:
// the (EMA-smoothed) restart latency estimate ᾱsim and the inter-production
// time τsim(p). The DV core implements it from observed simulations.
type Estimator interface {
	AlphaEstimate() time.Duration
	TauEstimate(parallelism int) time.Duration
	// DefaultParallelism and MaxParallelism bound strategy 1.
	DefaultParallelism() int
	MaxParallelism() int
}

// NewAgent returns an agent for the given grid with the given estimator.
// smax caps the parallel-prefetch level; rampUp enables the s-doubling
// ramp instead of launching sopt at once.
func NewAgent(grid model.Grid, est Estimator, smax int, rampUp bool, tauCliSmoothing float64) *Agent {
	if smax < 1 {
		smax = 1
	}
	return &Agent{
		grid:   grid,
		est:    est,
		tauCli: metrics.NewEMA(tauCliSmoothing),
		s:      1,
		rampUp: rampUp,
		smax:   smax,
	}
}

// Reset clears all pattern state (used on cache-pollution signals, which
// reset all active prefetch agents, Sec. IV-C).
func (a *Agent) Reset() {
	a.primed = false
	a.dir, a.k, a.confirmed = 0, 0, 0
	a.s = 1
	a.tauCli.Reset()
}

// Cover reports the furthest step along direction dir (stride k) that is
// already resident or promised by running simulations, contiguously from
// the current step. The DV core implements it from its file state.
type Cover func(dir, k int) int

// OnAccess feeds one analysis access into the agent. step is the accessed
// output step and now the current time. procTime is the DV-measured
// processing time of the analysis — the time since the client's previous
// file became available, *excluding* time spent blocked on missing files;
// this is the τcli of the performance model (if the raw inter-access gap
// were used, a simulation-paced analysis would be indistinguishable from a
// slow one and bandwidth matching could never engage). cover lets the
// agent query the coverage frontier along its (just updated) trajectory.
// The returned Decision may request launches or a reset.
func (a *Agent) OnAccess(step int, now, procTime time.Duration, cover Cover) Decision {
	var d Decision
	if !a.primed {
		a.primed = true
		a.lastStep, a.lastTime = step, now
		return d
	}
	delta := step - a.lastStep
	dt := procTime
	if dt <= 0 || dt > now-a.lastTime {
		dt = now - a.lastTime
	}
	a.lastStep, a.lastTime = step, now
	if delta == 0 {
		return d // repeated access to the same step: no pattern info
	}

	dir, k := 1, delta
	if delta < 0 {
		dir, k = -1, -delta
	}
	if dir != a.dir || k != a.k {
		// "A prefetch agent resets itself whenever the analysis tool
		// changes its analysis direction and/or stride" (Sec. IV-B).
		wasActive := a.confirmed >= 2
		a.dir, a.k = dir, k
		a.confirmed = 1
		a.s = 1
		a.tauCli.Reset()
		a.tauCli.Observe(float64(dt))
		d.Reset = wasActive
		return d
	}
	a.confirmed++
	a.tauCli.Observe(float64(dt))
	if a.confirmed < 2 {
		return d
	}

	// Pattern confirmed: decide whether the coverage frontier is close
	// enough that new re-simulations must start now to mask their restart
	// latency.
	alpha := a.est.AlphaEstimate()
	p := a.planParallelism()
	tauSim := a.est.TauEstimate(p)
	tauCli := time.Duration(a.tauCli.Value(float64(tauSim)))

	lead := PrefetchLead(a.k, alpha, tauSim, tauCli)
	// The paper's prefetching-step formula assumes the analysis is paced
	// by the simulation (max(k·τsim, τcli) per access). Once the runway is
	// cached, the analysis moves at τcli per access, so masking the next
	// restart latency needs a proportionally longer lead — otherwise every
	// batch boundary exposes a fresh αsim.
	if tauCli > 0 && tauCli < time.Duration(a.k)*tauSim {
		if fast := ceilDiv(alpha, tauCli) * a.k; fast > lead {
			lead = fast
		}
	}
	coveredUntil := cover(a.dir, a.k)
	remaining := 0
	if a.dir > 0 {
		remaining = coveredUntil - step
	} else {
		remaining = step - coveredUntil
	}
	if remaining > lead {
		return d // plenty of runway, nothing to do
	}

	// Compute the batch size s and per-simulation length n.
	var n int
	sopt := 1
	if a.dir > 0 {
		n = ForwardResimLength(a.grid, a.k, alpha, tauSim, tauCli)
		sopt = ForwardSOpt(a.k, tauSim, tauCli)
	} else {
		if bn, slow := BackwardResimLength(a.grid, a.k, alpha, tauSim, tauCli); slow {
			n = bn
			sopt = 1
		} else {
			n = a.grid.ExtendToRestart(a.grid.OutputsPerRestart())
			sopt = BackwardS(n, a.k, alpha, tauSim, tauCli)
		}
	}
	s := a.nextS(sopt)

	// Build s contiguous ranges of n steps each, beyond the frontier.
	d.Launches = a.launches[:0]
	frontier := coveredUntil
	if a.dir > 0 {
		if frontier < step {
			frontier = step
		}
		for i := 0; i < s; i++ {
			first := frontier + 1
			last := frontier + n
			if first > a.grid.NumOutputSteps() {
				break
			}
			if last > a.grid.NumOutputSteps() {
				last = a.grid.NumOutputSteps()
			}
			d.Launches = append(d.Launches, Range{First: first, Last: last})
			frontier = last
		}
	} else {
		if frontier > step {
			frontier = step
		}
		for i := 0; i < s; i++ {
			last := frontier - 1
			first := frontier - n
			if last < 1 {
				break
			}
			if first < 1 {
				first = 1
			}
			d.Launches = append(d.Launches, Range{First: first, Last: last})
			frontier = first
		}
	}
	a.launches = d.Launches
	d.Parallelism = p
	return d
}

// planParallelism implements strategy 1 (Sec. IV-B1b): raise the
// parallelism of the next re-simulation while the analysis outpaces the
// simulation and the context allows more nodes, then leave the residual gap
// to strategy 2 (parallel simulations).
func (a *Agent) planParallelism() int {
	p := a.est.DefaultParallelism()
	maxP := a.est.MaxParallelism()
	tauCli := time.Duration(a.tauCli.Value(0))
	if tauCli <= 0 {
		return p
	}
	for p < maxP {
		if time.Duration(a.k)*a.est.TauEstimate(p) <= tauCli {
			break // simulation fast enough at this level
		}
		next := p * 2
		if next > maxP {
			next = maxP
		}
		if a.est.TauEstimate(next) >= a.est.TauEstimate(p) {
			break // no performance benefit in increasing p
		}
		p = next
	}
	return p
}

// nextS returns the parallel-simulation count for this prefetching step,
// applying the doubling ramp-up when configured: "start with s = 1 and
// double it at each prefetching step until ... s < min(sopt, smax)".
func (a *Agent) nextS(sopt int) int {
	target := sopt
	if target > a.smax {
		target = a.smax
	}
	if target < 1 {
		target = 1
	}
	if !a.rampUp {
		a.s = target
		return target
	}
	s := a.s
	if s > target {
		s = target
	}
	if a.s < target {
		a.s *= 2
		if a.s > target {
			a.s = target
		}
	}
	return s
}
