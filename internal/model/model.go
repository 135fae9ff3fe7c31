// Package model implements the simulation model of SimFS (paper Sec. II-A):
// forward-in-time simulations that emit output steps every Δd timesteps and
// restart steps every Δr timesteps. All quantities are integer timesteps;
// output steps are identified by their 1-based index i, written at timestep
// i·Δd. The package provides the timestep algebra used throughout the
// system: locating the closest previous restart step R(di), computing the
// re-simulation interval that covers a missing output step, and the miss
// cost used by the cost-aware replacement schemes (BCL/DCL).
package model

import (
	"errors"
	"fmt"
)

// Grid describes the temporal discretization of one simulation
// configuration: how often output steps and restart steps are produced.
type Grid struct {
	// DeltaD is the number of timesteps between two consecutive output
	// steps. Output step i is written at timestep i*DeltaD.
	DeltaD int
	// DeltaR is the number of timesteps between two consecutive restart
	// steps. Restart step j is written at timestep j*DeltaR. The
	// simulation can be restarted from any restart step (including the
	// initial conditions at timestep 0).
	DeltaR int
	// Timesteps is the total number of timesteps of the initial
	// simulation; the simulation covers timesteps (0, Timesteps].
	Timesteps int
}

// Validate reports whether the grid parameters are usable.
func (g Grid) Validate() error {
	switch {
	case g.DeltaD <= 0:
		return fmt.Errorf("model: DeltaD must be positive, got %d", g.DeltaD)
	case g.DeltaR <= 0:
		return fmt.Errorf("model: DeltaR must be positive, got %d", g.DeltaR)
	case g.Timesteps < 0:
		return fmt.Errorf("model: Timesteps must be non-negative, got %d", g.Timesteps)
	}
	return nil
}

// NumOutputSteps returns the number of output steps no = ⌊n/Δd⌋ produced
// by the initial simulation.
func (g Grid) NumOutputSteps() int { return g.Timesteps / g.DeltaD }

// NumRestartSteps returns the number of restart steps nr = ⌊n/Δr⌋ produced
// by the initial simulation (excluding the initial conditions at t=0).
func (g Grid) NumRestartSteps() int { return g.Timesteps / g.DeltaR }

// OutputTimestep returns the timestep at which output step i is written.
func (g Grid) OutputTimestep(i int) int { return i * g.DeltaD }

// ValidOutput reports whether i is a valid output step index for this grid.
func (g Grid) ValidOutput(i int) bool {
	return i >= 1 && i <= g.NumOutputSteps()
}

// RestartBefore returns the timestep of the closest restart step from which
// a re-simulation can produce output step i. This is the paper's R(di): the
// largest multiple of Δr strictly smaller than the timestep of output i
// (a simulation restarted exactly at i·Δd cannot reproduce output i, which
// spans the Δd timesteps ending at i·Δd).
func (g Grid) RestartBefore(i int) int {
	t := g.OutputTimestep(i)
	if t <= 0 {
		return 0
	}
	return ((t - 1) / g.DeltaR) * g.DeltaR
}

// RestartAfter returns the timestep of the first restart step at or after
// output step i. Re-simulations run "until at least the next restart step"
// (Sec. II-A) to exploit spatial locality.
func (g Grid) RestartAfter(i int) int {
	t := g.OutputTimestep(i)
	return ((t + g.DeltaR - 1) / g.DeltaR) * g.DeltaR
}

// MissCost returns the cost, in number of output steps that must be
// simulated, of a miss on output step i: the distance from its closest
// previous restart step. This is the miss cost used by BCL/DCL (Sec.
// III-D): "the distance, in number of output steps, from its closest
// previous restart step".
func (g Grid) MissCost(i int) int {
	r := g.RestartBefore(i)
	return i - r/g.DeltaD
}

// OutputsPerRestart returns Δr/Δd rounded up: the maximum number of output
// steps contained in one restart interval. This acts as the effective cache
// block size of the virtualization (Sec. V-A discussion of Fig. 12).
func (g Grid) OutputsPerRestart() int {
	return (g.DeltaR + g.DeltaD - 1) / g.DeltaD
}

// Interval is a half-open range of timesteps (Start, End] that a
// re-simulation covers. Output steps with Start < i·Δd ≤ End are produced.
type Interval struct {
	Start int // restart timestep the simulation boots from
	End   int // last timestep simulated (inclusive)
}

// Len returns the number of timesteps simulated.
func (iv Interval) Len() int { return iv.End - iv.Start }

// ErrOutOfRange is returned when an output step index is outside the
// simulated timeline.
var ErrOutOfRange = errors.New("model: output step out of simulated range")

// ResimInterval returns the minimal re-simulation interval that produces
// output step i and extends to the next restart step, clamped to the end of
// the simulated timeline.
func (g Grid) ResimInterval(i int) (Interval, error) {
	if !g.ValidOutput(i) {
		return Interval{}, fmt.Errorf("%w: i=%d, valid range [1,%d]", ErrOutOfRange, i, g.NumOutputSteps())
	}
	end := g.RestartAfter(i)
	if end > g.Timesteps {
		end = g.Timesteps
	}
	return Interval{Start: g.RestartBefore(i), End: end}, nil
}

// OutputsIn returns the inclusive range [first,last] of output step indices
// produced by a re-simulation covering iv. If the interval produces no
// output steps, ok is false.
func (g Grid) OutputsIn(iv Interval) (first, last int, ok bool) {
	first = iv.Start/g.DeltaD + 1
	last = iv.End / g.DeltaD
	if first > last {
		return 0, 0, false
	}
	return first, last, true
}

// ExtendToRestart rounds n output steps up to the nearest restart-interval
// multiple, as done when sizing prefetched re-simulations (Sec. IV-B1a:
// "We always round n up to the nearest restart interval multiple").
func (g Grid) ExtendToRestart(n int) int {
	opr := g.OutputsPerRestart()
	if n <= 0 {
		return opr
	}
	return (n + opr - 1) / opr * opr
}
