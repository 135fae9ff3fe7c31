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
// each context's stats frame. The target caches context handles across
// ticks and drops them when contexts disappear.
type AdminTarget struct {
	C *dvlib.Client

	ctxs map[string]*dvlib.Context
}

// adminCallTimeout bounds each control-plane call.
const adminCallTimeout = 5 * time.Second

// NewAdminTarget wraps a connected client.
func NewAdminTarget(c *dvlib.Client) *AdminTarget {
	return &AdminTarget{C: c, ctxs: make(map[string]*dvlib.Context)}
}

func (at *AdminTarget) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), adminCallTimeout)
}

func (at *AdminTarget) Sample() (Sample, error) {
	cctx, cancel := at.callCtx()
	defer cancel()
	cfg, err := at.C.Admin().SchedConfig(cctx)
	if err != nil {
		return Sample{}, err
	}
	s := Sample{Cfg: cfg, Ctxs: make(map[string]metrics.Report)}
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
		r, err := h.Stats()
		if err != nil {
			continue
		}
		s.add(name, r)
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
	_, err := at.C.Admin().UpdateSchedConfig(cctx, p)
	return err
}

func (at *AdminTarget) SetCachePolicy(ctxName, policy string) error {
	cctx, cancel := at.callCtx()
	defer cancel()
	return at.C.Admin().SetCachePolicy(cctx, ctxName, policy)
}
