// Package faults provides composable, deterministically seeded fault
// injectors for chaos testing the SimFS stack end to end:
//
//   - FS wraps a vfs.FS storage area and injects I/O errors into the
//     write path (Create/Remove), the errors a parallel file system
//     under pressure actually produces.
//   - SimPlan is a simulation failure schedule pluggable into the
//     launchers' FailAt hook: crash-at-step, fail-N-times-then-succeed,
//     permanent failure, every-nth-launch, and
//     seeded random crashes.
//   - ConnPlan wraps net.Conn and severs, delays, or partially writes
//     at configurable points, modeling flaky networks between DVLib
//     clients and the daemon.
//
// Every injector is deterministic for a given seed and call sequence, so
// a chaos-run failure reproduces from its seed. All injectors count what
// they injected; harnesses assert the schedule actually fired.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
)

// seededRng returns a locked deterministic source. The stdlib global rng
// is deliberately avoided: chaos schedules must replay byte-identically
// from their seed.
func seededRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SimPlan decides, per simulation launch, whether and where the run
// crashes. It implements the launchers' FailAt hook: the return value is
// the first step the crashed run does NOT produce (steps first..crash-1
// land on storage before the failure), crash == first fails before
// producing anything, and a negative return means the launch runs
// healthy. The zero value injects nothing.
type SimPlan struct {
	mu       sync.Mutex
	every    int64
	rules    []simRule
	attempts map[string]int
	rng      *rand.Rand
	prob     float64
	launches int64
	injected uint64
}

type simRule struct {
	ctx   string // "" matches every context
	step  int    // launch matches when first <= step <= last; -1 = all
	after int    // steps produced before the crash
	failN int    // fail this many matching launches, then heal; 0 = permanent
	fired int
}

// NewSimPlan returns an empty plan; compose it with the With* methods.
func NewSimPlan() *SimPlan { return &SimPlan{} }

// WithEvery crashes every n-th launch halfway through its range — the
// fixed-schedule shorthand (0 disables).
func (p *SimPlan) WithEvery(n int) *SimPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.every = int64(n)
	return p
}

// WithCrashAt permanently fails every launch of ctxName whose range
// covers step, after producing `after` steps. ctxName "" matches every
// context; step -1 matches every launch.
func (p *SimPlan) WithCrashAt(ctxName string, step, after int) *SimPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, simRule{ctx: ctxName, step: step, after: after})
	return p
}

// WithFailN fails the first n matching launches (producing `after` steps
// each time), then lets later attempts succeed — the shape a transient
// simulator failure has, and what the retry ledger must ride out.
func (p *SimPlan) WithFailN(ctxName string, step, n, after int) *SimPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, simRule{ctx: ctxName, step: step, after: after, failN: n})
	return p
}

// WithRandom crashes each launch with probability prob at a seeded
// random point in its range.
func (p *SimPlan) WithRandom(seed int64, prob float64) *SimPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = seededRng(seed)
	p.prob = prob
	return p
}

// FailAt is the launcher hook (simulator.Launcher.FailAt, on either
// clock), called once per Launch. It must observe every launch so
// per-launch counters stay in step with the launcher's ids.
func (p *SimPlan) FailAt(ctxName string, first, last int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.launches++
	for i := range p.rules {
		r := &p.rules[i]
		if r.ctx != "" && r.ctx != ctxName {
			continue
		}
		if r.step >= 0 && (r.step < first || r.step > last) {
			continue
		}
		if r.failN > 0 && r.fired >= r.failN {
			continue
		}
		r.fired++
		p.injected++
		return clampCrash(first, last, first+r.after)
	}
	if p.every > 0 && p.launches%p.every == 0 {
		p.injected++
		return clampCrash(first, last, first+(last-first)/2+1)
	}
	if p.rng != nil && p.prob > 0 && p.rng.Float64() < p.prob {
		p.injected++
		return clampCrash(first, last, first+p.rng.Intn(last-first+1))
	}
	return -1
}

// clampCrash keeps the crash step inside [first, last] so a fault is
// never silently rounded into a healthy run.
func clampCrash(first, last, crash int) int {
	if crash < first {
		return first
	}
	if crash > last {
		return last
	}
	return crash
}

// Injected returns how many launches the plan crashed so far.
func (p *SimPlan) Injected() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// InjectedError marks storage errors produced by FS so tests can tell
// injected faults from real ones.
type InjectedError struct {
	Op   string
	Name string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected storage error: %s %q", e.Op, e.Name)
}
