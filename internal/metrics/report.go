package metrics

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

// Report is one context's stats record, the stats frame of the wire
// protocol as it is: the shard's counters and lock counters, the
// context's control-plane state, the daemon-global scheduler ledger and
// the front end's per-op service times. The Virtualizer builds it, the
// context's owning daemon answers it (through the federation router
// too, which relays the owner's answer) and simfs-ctl stats prints it.
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
	// offered load (output steps submitted to the scheduler); two
	// samples diff into each client's share of a window.
	SchedStats
	ClientLoads map[string]uint64 `json:"sched_client_loads,omitempty"`
	// Retries counts failed re-simulations relaunched by the ledger;
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
