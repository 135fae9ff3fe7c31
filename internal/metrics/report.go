package metrics

import (
	"cmp"
	"sort"
)

// CtxStats counts one context's events in its Virtualizer shard: the
// DV's record of how analyses access the context (opens, hits, misses)
// and what it launched to serve them. The experiment tables print it
// with %+v (internal/experiments/testdata/sched_golden.txt pins that
// line), so its field list and order are frozen: a new per-context term
// goes in a sibling record embedded in Report.
//
//simfs:exhaustive
type CtxStats struct {
	Opens            int64 `json:"opens"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Restarts         int64 `json:"restarts"` // simulations launched (demand + prefetch)
	DemandRestarts   int64 `json:"demand_restarts"`
	PrefetchLaunches int64 `json:"prefetch_launches"`
	DroppedPrefetch  int64 `json:"dropped_prefetch"` // prefetches skipped because smax was reached
	StepsProduced    int64 `json:"steps_produced"`
	Evictions        int64 `json:"evictions"`
	Kills            int64 `json:"kills"`
	Failures         int64 `json:"failures"`
	PollutionResets  int64 `json:"pollution_resets"`
}

// Add accumulates o into s.
//
//simfs:sync CtxStats
func (s *CtxStats) Add(o CtxStats) {
	s.Opens += o.Opens
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Restarts += o.Restarts
	s.DemandRestarts += o.DemandRestarts
	s.PrefetchLaunches += o.PrefetchLaunches
	s.DroppedPrefetch += o.DroppedPrefetch
	s.StepsProduced += o.StepsProduced
	s.Evictions += o.Evictions
	s.Kills += o.Kills
	s.Failures += o.Failures
	s.PollutionResets += o.PollutionResets
}

// Report is one context's stats record, the stats frame of the wire
// protocol as it is: the shard's counters and lock counters, the
// context's control-plane state, the daemon-global scheduler ledger and
// the front end's per-op service times. The Virtualizer builds it, the
// daemon answers it, the federation router sums it with Add and the
// autoscale controller samples it.
//
//simfs:exhaustive
type Report struct {
	CtxStats
	// Draining and CachePolicy are the knobs `drain`/`resume` and
	// `cache-policy-set` flip, reported back so an operator can see
	// that a reconfiguration landed.
	Draining    bool   `json:"draining,omitempty"`
	CachePolicy string `json:"cache_policy,omitempty"`
	// LockStats counts the context's shard-lock acquisitions.
	LockStats
	// SchedStats and ClientLoads are daemon-wide: the scheduler is
	// shared by every context. ClientLoads is the cumulative per-client
	// offered load (output steps submitted to the scheduler), which an
	// autoscale controller diffs across two samples to measure client
	// skew.
	SchedStats
	ClientLoads map[string]uint64 `json:"sched_client_loads,omitempty"`
	// Retries counts failed re-simulations re-submitted with backoff;
	// Quarantined counts circuit-breaker openings since the context was
	// registered (cumulative: an interval that was quarantined and has
	// since closed still counts). Both stay zero without a retry policy.
	Retries     int64 `json:"sched_retries,omitempty"`
	Quarantined int64 `json:"sched_quarantined,omitempty"`
	// Ops carries the daemon's per-op service-time percentiles (log2
	// histograms: p50/p99 are bucket upper bounds, exact to within 2x).
	// The Virtualizer leaves it nil; the daemon's front end fills it.
	Ops []OpLatency `json:"op_latencies,omitempty"`
}

// Add accumulates o into r, as the federation router merges the answers
// of the members that host a context: counters sum, the drain flag ORs,
// the first cache policy reported stands, client loads sum per client
// and per-op latencies merge by op.
//
//simfs:sync Report
func (r *Report) Add(o Report) {
	r.CtxStats.Add(o.CtxStats)
	r.Draining = r.Draining || o.Draining
	r.CachePolicy = cmp.Or(r.CachePolicy, o.CachePolicy)
	r.LockStats.Add(o.LockStats)
	r.SchedStats.Add(o.SchedStats)
	r.ClientLoads = addLoads(r.ClientLoads, o.ClientLoads)
	r.Retries += o.Retries
	r.Quarantined += o.Quarantined
	r.Ops = mergeOpLatencies(r.Ops, o.Ops)
}

// addLoads sums b's per-client loads into a, which it allocates on
// first use.
func addLoads(a, b map[string]uint64) map[string]uint64 {
	if a == nil && len(b) > 0 {
		a = make(map[string]uint64, len(b))
	}
	for client, steps := range b {
		a[client] += steps
	}
	return a
}

// mergeOpLatencies merges per-op summaries by name: counts sum and the
// percentiles take the slowest member (the bound an operator cares
// about), sorted by op for a deterministic wire order.
func mergeOpLatencies(a, b []OpLatency) []OpLatency {
	if len(a) == 0 {
		return b
	}
	byOp := make(map[string]OpLatency, len(a)+len(b))
	for _, l := range a {
		byOp[l.Op] = l
	}
	for _, l := range b {
		if have, ok := byOp[l.Op]; ok {
			have.Count += l.Count
			have.P50Ns = max(have.P50Ns, l.P50Ns)
			have.P99Ns = max(have.P99Ns, l.P99Ns)
			byOp[l.Op] = have
		} else {
			byOp[l.Op] = l
		}
	}
	out := make([]OpLatency, 0, len(byOp))
	for _, l := range byOp {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
