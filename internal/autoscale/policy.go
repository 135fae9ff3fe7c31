package autoscale

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/sched"
)

// Tick is what a policy sees on each control iteration: the current
// sample, the previous one (zero-valued when First), and the controller
// clock. Policies derive rates from Cur−Prev deltas; on the first tick
// there is no window yet, so stateful policies should observe and pass.
type Tick struct {
	Now   time.Duration
	First bool
	Prev  Sample
	Cur   Sample
}

// demandWaitDelta is the growth of cumulative demand-class queueing
// delay across the tick window — the controller's headline contention
// signal.
func (t Tick) demandWaitDelta() time.Duration {
	return t.Cur.Sched.DemandWait.Wait - t.Prev.Sched.DemandWait.Wait
}

// CacheSwitch asks the target to swap one context's cache policy.
type CacheSwitch struct {
	Ctx    string
	Policy string
}

// Action is one policy verdict: a scheduler patch, a cache switch, or
// both, with the trigger spelled out for the decision log.
type Action struct {
	Patch  *sched.Patch
	Cache  *CacheSwitch
	Reason string
}

// describe renders the actuation half of an action for the decision log.
func (a Action) describe() string {
	var parts []string
	if a.Patch != nil && !a.Patch.Empty() {
		parts = append(parts, a.Patch.String())
	}
	if a.Cache != nil {
		parts = append(parts, fmt.Sprintf("cache{ctx=%s policy=%s}", a.Cache.Ctx, a.Cache.Policy))
	}
	if len(parts) == 0 {
		return "observe"
	}
	return strings.Join(parts, " ")
}

// Policy is one feedback rule. Evaluate runs on every tick with the
// current window and returns zero or more actions; it must be
// deterministic given the tick (policies may keep internal hysteresis
// state, but no other side effects).
type Policy interface {
	Name() string
	Evaluate(t Tick) []Action
}

// sortedCtxNames iterates a sample's contexts deterministically.
func sortedCtxNames(ctxs map[string]metrics.Report) []string {
	names := make([]string, 0, len(ctxs))
	for name := range ctxs { //simfs:allow maporder the collected keys are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ptr returns a pointer to v, for filling sched.Patch fields.
func ptr[T any](v T) *T { return &v }

// orDefault returns v, or def when v is unset (≤ 0): every policy
// threshold reads "zero means the documented default".
func orDefault[T int | int64 | uint64 | float64 | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}
