// Package batch models the batch system SimFS submits re-simulation jobs
// to (paper Sec. III-B, IV-C1): queueing delays — the dominant,
// system-dependent component of the restart latency αsim on HPC machines.
// The samplers are pure bookkeeping so they compose with either virtual
// (DES) or wall-clock time. The bounded node pool that used to live here
// was absorbed by the re-simulation scheduler (internal/sched), which
// enforces FIFO node admission above the launchers. A job killed while
// its sampled delay elapses (client cancellation or scheduler
// preemption) simply abandons the draw; if the scheduler later requeues
// its interval, the relaunch samples a fresh delay — a preempted job
// re-enters the batch queue like any new submission.
package batch

import (
	"math/rand"
	"time"
)

// Sampler produces successive queueing delays.
type Sampler interface {
	Next() time.Duration
}

// Constant is a Sampler returning a fixed delay.
type Constant time.Duration

// Next implements Sampler.
func (c Constant) Next() time.Duration { return time.Duration(c) }

// Uniform samples delays uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
	Rng      *rand.Rand
}

// Next implements Sampler.
func (u *Uniform) Next() time.Duration {
	if u.Max == u.Min {
		return u.Min
	}
	return u.Min + time.Duration(u.Rng.Int63n(int64(u.Max-u.Min)))
}

// Exponential samples delays from an exponential distribution with the
// given mean — the classic model for batch queueing times with high
// variability (paper Sec. IV-C1c, "non-constant restart latencies").
type Exponential struct {
	Mean time.Duration
	Rng  *rand.Rand
}

// NewExponential returns a deterministic exponential sampler.
func NewExponential(mean time.Duration, seed int64) *Exponential {
	return &Exponential{Mean: mean, Rng: rand.New(rand.NewSource(seed))}
}

// Next implements Sampler.
func (e *Exponential) Next() time.Duration {
	if e.Mean <= 0 {
		return 0
	}
	return time.Duration(e.Rng.ExpFloat64() * float64(e.Mean))
}
