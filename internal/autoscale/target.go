package autoscale

import (
	"simfs/internal/core"
	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// CtxSample is one context's counters as seen at a tick. Counters are
// cumulative; policies difference consecutive samples for rates.
type CtxSample struct {
	Opens          int64
	Hits           int64
	Misses         int64
	Restarts       int64
	DemandRestarts int64
	CachePolicy    string
	Draining       bool
}

// Sample is the controller's full observation of the target at one tick.
type Sample struct {
	// Sched is the daemon-global scheduler ledger (cumulative).
	Sched metrics.SchedStats
	// Cfg is the scheduler config in effect — policies read it so they
	// never actuate blind (and never fight operator settings).
	Cfg sched.Config
	// Ctxs maps context name → counters.
	Ctxs map[string]CtxSample
	// Loads maps client name → cumulative demand-class steps submitted,
	// the DRR tuner's skew signal.
	Loads map[string]uint64
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
	s := Sample{
		Sched: lt.V.SchedStats(),
		Cfg:   lt.V.SchedConfig(),
		Ctxs:  make(map[string]CtxSample),
		Loads: lt.V.Scheduler().ClientLoads(),
	}
	for _, name := range lt.V.ContextNames() {
		st, err := lt.V.Stats(name)
		if err != nil {
			continue // deregistered between list and read
		}
		policy, _ := lt.V.CachePolicyName(name)
		draining, _ := lt.V.Draining(name)
		s.Ctxs[name] = CtxSample{
			Opens: st.Opens, Hits: st.Hits, Misses: st.Misses,
			Restarts: st.Restarts, DemandRestarts: st.DemandRestarts,
			CachePolicy: policy, Draining: draining,
		}
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
