package autoscale

import (
	"simfs/internal/core"
	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// Sample is the controller's full observation of the target at one tick.
type Sample struct {
	// Sched is the daemon-global scheduler ledger (cumulative).
	Sched metrics.SchedStats
	// Cfg is the scheduler config in effect — policies read it so they
	// never actuate blind (and never fight operator settings).
	Cfg sched.Config
	// Ctxs maps context name → its stats record. Counters are
	// cumulative; policies difference consecutive samples for rates.
	Ctxs map[string]metrics.Report
	// Loads maps client name → cumulative output steps submitted to the
	// scheduler by every class — demand, guided and agent — plus those
	// of prefetches refused at capacity (sched.Scheduler.Dropped): the
	// DRR tuner's skew signal.
	Loads map[string]uint64
}

// add stores a context's report. The scheduler ledger and the client
// loads are daemon-global and ride every report, so the last one read
// wins (they describe the same ledger).
func (s *Sample) add(name string, r metrics.Report) {
	s.Ctxs[name] = r
	s.Sched, s.Loads = r.SchedStats, r.ClientLoads
}

// Target is what a controller steers: sample the stats surface, apply a
// merged scheduler patch, swap a cache policy. LocalTarget binds to an
// in-process Virtualizer; AdminTarget to a remote daemon over dvlib.
type Target interface {
	Sample() (Sample, error)
	ApplySched(p sched.Patch) error
	SetCachePolicy(ctx, policy string) error
}

// LocalTarget steers an in-process Virtualizer — the deterministic path
// used by experiments and tests.
type LocalTarget struct {
	V *core.Virtualizer
}

func (lt LocalTarget) Sample() (Sample, error) {
	s := Sample{Cfg: lt.V.SchedConfig(), Ctxs: make(map[string]metrics.Report)}
	for _, name := range lt.V.ContextNames() {
		r, err := lt.V.Report(name)
		if err != nil {
			continue // deregistered between list and read
		}
		s.add(name, r)
	}
	return s, nil
}

func (lt LocalTarget) ApplySched(p sched.Patch) error {
	_, err := lt.V.UpdateSchedConfig(p)
	return err
}

func (lt LocalTarget) SetCachePolicy(ctx, policy string) error {
	return lt.V.SetCachePolicy(ctx, policy)
}
