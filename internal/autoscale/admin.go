package autoscale

import (
	"context"
	"fmt"
	"strings"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// AdminTarget steers a remote daemon over a dvlib connection — the
// simfs-ctl autoscale mode. Sampling walks the context list and reads
// each context's stats frame. The target caches context handles across
// ticks and drops them when contexts disappear.
//
// It refuses a federation router: through one, each context's stats come
// from its ring owner, so a sample would hold the scheduler ledger of
// whichever daemon owns the last context, while sched-set reaches every
// member. The first Sample asks the endpoint for its peers and fails if
// it has any.
type AdminTarget struct {
	C *dvlib.Client

	ctxs   map[string]*dvlib.Context
	daemon bool // the endpoint answered peers with none: not a router
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
	if !at.daemon {
		peers, err := at.C.Admin().Peers(cctx)
		if err != nil {
			return Sample{}, err
		}
		if len(peers) > 0 {
			addrs := make([]string, len(peers))
			for i, p := range peers {
				addrs[i] = p.Addr
			}
			return Sample{}, fmt.Errorf("autoscale: the endpoint is a federation router over %s: its stats come from each context's owner while sched-set reaches every member; steer each member daemon directly",
				strings.Join(addrs, ", "))
		}
		at.daemon = true
	}
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
