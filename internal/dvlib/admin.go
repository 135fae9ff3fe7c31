package dvlib

import (
	"context"

	"simfs/internal/model"
	"simfs/internal/netproto"
)

// Admin is the control-plane client of a DV daemon (capability "admin"):
// it reconfigures the re-simulation scheduler, swaps cache policies,
// registers and retires simulation contexts and drains/resumes them —
// all on the live daemon, without a restart. Every method honors its
// context for deadlines and cancellation.
type Admin struct {
	c *Client
}

// Admin returns the control-plane view of the connection.
func (c *Client) Admin() *Admin { return &Admin{c: c} }

// SchedConfig mirrors the daemon's re-simulation scheduler policy:
// request coalescing, priority-ordered queueing and the global node
// budget (0 = unlimited).
type SchedConfig = netproto.SchedInfo

// SchedUpdate is a partial scheduler reconfiguration: nil fields keep
// the daemon's current value.
type SchedUpdate = netproto.SchedSetBody

// SchedConfig reads the scheduler policy in effect.
func (a *Admin) SchedConfig(ctx context.Context) (SchedConfig, error) {
	resp, err := a.c.callCtx(ctx, netproto.OpSchedGet, nil)
	if err != nil {
		return SchedConfig{}, err
	}
	if resp.Sched == nil {
		return SchedConfig{}, &Error{Op: netproto.OpSchedGet, Msg: "daemon sent no scheduler config"}
	}
	return *resp.Sched, nil
}

// UpdateSchedConfig applies a partial scheduler reconfiguration and returns
// the resulting policy. The daemon applies it at the next admission
// boundary: queued jobs are re-ordered, running simulations keep the
// capacity they were admitted with. The preemption/fairness fields ride
// the "preempt" capability: against a daemon that does not advertise it,
// sending them would be silently ignored (unknown JSON fields), so the
// call fails client-side with CodeUnsupported instead.
func (a *Admin) UpdateSchedConfig(ctx context.Context, upd SchedUpdate) (SchedConfig, error) {
	if (upd.Preempt != nil || upd.DRRQuantum != nil) && !a.c.HasCapability(netproto.CapPreempt) {
		return SchedConfig{}, &Error{Code: netproto.CodeUnsupported, Op: netproto.OpSchedSet,
			Msg: "daemon does not advertise the preempt capability; preempt_policy/drr_quantum would be silently ignored"}
	}
	resp, err := a.c.callCtx(ctx, netproto.OpSchedSet, upd)
	if err != nil {
		return SchedConfig{}, err
	}
	if resp.Sched == nil {
		return SchedConfig{}, &Error{Op: netproto.OpSchedSet, Msg: "daemon sent no scheduler config"}
	}
	return *resp.Sched, nil
}

// SetCachePolicy swaps a context's cache replacement scheme live; the
// daemon rebuilds the new policy from the resident set, so nothing is
// evicted by the swap itself.
func (a *Admin) SetCachePolicy(ctx context.Context, ctxName, policy string) error {
	_, err := a.c.callCtx(ctx, netproto.OpCachePolicySet,
		netproto.CachePolicyBody{Context: ctxName, Policy: policy})
	return err
}

// RegisterContext adds a simulation context to the running daemon. With
// initialSim the daemon runs the initial simulation first (restart files
// + original checksums), so the context is usable the moment the call
// returns.
func (a *Admin) RegisterContext(ctx context.Context, mc *model.Context, policy string, initialSim bool) error {
	_, err := a.c.callCtx(ctx, netproto.OpCtxRegister,
		netproto.CtxRegisterBody{Context: mc, Policy: policy, InitialSim: initialSim})
	return err
}

// DeregisterContext removes a drained context. The daemon refuses with
// CodeBusy while references, waiters or simulations are live — drain
// first and retry once the workload has emptied.
func (a *Admin) DeregisterContext(ctx context.Context, name string) error {
	_, err := a.c.callCtx(ctx, netproto.OpCtxDeregister, netproto.CtxBody{Context: name})
	return err
}

// Drain stops admitting new opens and prefetches for a context; running
// work completes and releases still land.
func (a *Admin) Drain(ctx context.Context, name string) error {
	_, err := a.c.callCtx(ctx, netproto.OpDrain, netproto.CtxBody{Context: name})
	return err
}

// Resume lifts a drain.
func (a *Admin) Resume(ctx context.Context, name string) error {
	_, err := a.c.callCtx(ctx, netproto.OpResume, netproto.CtxBody{Context: name})
	return err
}

// Peers lists a router's federation links, its ring members. A daemon
// has none: an empty list means the endpoint is not federated.
func (a *Admin) Peers(ctx context.Context) ([]netproto.PeerInfo, error) {
	resp, err := a.c.callCtx(ctx, netproto.OpPeers, nil)
	if err != nil {
		return nil, err
	}
	return resp.Peers, nil
}

// ResetQuarantine clears the re-simulation failure ledger of a context
// ("" = every context), closing open circuit breakers so demand opens
// launch fresh re-simulations again — the operator override once the
// underlying fault (full file system, broken module environment) is
// fixed before the cooldown elapses. It returns how many quarantined
// intervals were released.
func (a *Admin) ResetQuarantine(ctx context.Context, name string) (int, error) {
	resp, err := a.c.callCtx(ctx, netproto.OpQuarantineReset, netproto.CtxBody{Context: name})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}
