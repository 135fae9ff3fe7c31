package autoscale

import (
	"context"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// AdminTarget steers a remote daemon over a dvlib connection — the
// simfs-ctl autoscale mode. Sampling walks the context list and reads
// each context's stats frame; the daemon-global scheduler fields ride
// every frame, so the last one read wins (they describe the same
// ledger). The target caches context handles across ticks and drops
// them when contexts disappear.
type AdminTarget struct {
	C *dvlib.Client
	// Timeout bounds each control-plane call (default 5s).
	Timeout time.Duration

	ctxs map[string]*dvlib.Context
}

// NewAdminTarget wraps a connected client.
func NewAdminTarget(c *dvlib.Client) *AdminTarget {
	return &AdminTarget{C: c, ctxs: make(map[string]*dvlib.Context)}
}

func (at *AdminTarget) callCtx() (context.Context, context.CancelFunc) {
	timeout := at.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return context.WithTimeout(context.Background(), timeout)
}

func (at *AdminTarget) Sample() (Sample, error) {
	cctx, cancel := at.callCtx()
	defer cancel()
	cfg, err := at.C.Admin().SchedConfig(cctx)
	if err != nil {
		return Sample{}, err
	}
	s := Sample{Cfg: cfg, Ctxs: make(map[string]CtxSample)}
	names, err := at.C.Contexts()
	if err != nil {
		return Sample{}, err
	}
	live := make(map[string]bool, len(names))
	for _, name := range names {
		live[name] = true
		h, ok := at.ctxs[name]
		if !ok {
			if h, err = at.C.Init(name); err != nil {
				continue // racing a deregister; pick it up next tick
			}
			at.ctxs[name] = h
		}
		st, err := h.Stats()
		if err != nil {
			continue
		}
		s.Ctxs[name] = CtxSample{
			Opens: st.Opens, Hits: st.Hits, Misses: st.Misses,
			Restarts: st.Restarts, DemandRestarts: st.DemandRestarts,
			CachePolicy: st.CachePolicy, Draining: st.Draining,
		}
		// The Sched* fields are daemon-global and identical on every
		// frame of the same tick.
		s.Sched = metrics.SchedStats{
			Coalesced: st.SchedCoalesced, Dropped: st.SchedDropped,
			Canceled: st.SchedCanceled, Preempted: st.SchedPreempted,
			Promoted: st.SchedPromoted, QueueDepth: st.SchedQueueDepth,
			QuotaRounds: st.SchedQuotaRounds, QuotaDeferred: st.SchedQuotaDeferred,
			DemandWait: metrics.SchedClassWait{Wait: time.Duration(st.SchedDemandWaitNs)},
			GuidedWait: metrics.SchedClassWait{Wait: time.Duration(st.SchedGuidedWaitNs)},
			AgentWait:  metrics.SchedClassWait{Wait: time.Duration(st.SchedAgentWaitNs)},
		}
		s.Loads = st.SchedClientLoads
	}
	for name := range at.ctxs {
		if !live[name] {
			delete(at.ctxs, name)
		}
	}
	return s, nil
}

func (at *AdminTarget) ApplySched(p sched.Patch) error {
	cctx, cancel := at.callCtx()
	defer cancel()
	_, err := at.C.Admin().SetSchedConfig(cctx, p)
	return err
}

func (at *AdminTarget) SetCachePolicy(ctxName, policy string) error {
	cctx, cancel := at.callCtx()
	defer cancel()
	return at.C.Admin().SetCachePolicy(cctx, ctxName, policy)
}
