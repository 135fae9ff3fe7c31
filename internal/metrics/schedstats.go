package metrics

import "time"

// SchedClassWait accumulates the queueing delay of one scheduler priority
// class: how many jobs were admitted from the queue and how long they
// waited between enqueue and admission, in the scheduler's time source
// (virtual time under the DES, wall time under the daemon).
type SchedClassWait struct {
	// Jobs counts jobs of this class admitted from the queue (jobs
	// admitted immediately never enter the queue and are not counted).
	Jobs uint64 `json:"jobs"`
	// Wait is the cumulative enqueue→admission delay of those jobs.
	Wait time.Duration `json:"wait_ns"`
}

// SchedStats summarizes the re-simulation scheduler (internal/sched): the
// fate of submitted launch requests and the queue behavior. The scheduler
// is shared by all contexts of a daemon, so every context's Report
// carries the same ledger; its fields are declared in the stats frame's
// key order.
type SchedStats struct {
	// QueueDepth is the current number of queued jobs.
	QueueDepth int `json:"sched_queue_depth,omitempty"`
	// Queued counts requests that entered the queue as new jobs.
	Queued uint64 `json:"sched_queued,omitempty"`
	// Coalesced counts requests merged into an already-queued job
	// instead of becoming jobs of their own.
	Coalesced uint64 `json:"sched_coalesced,omitempty"`
	// Dropped counts prefetch requests rejected at capacity (the paper's
	// smax rule: a full DV does not prefetch).
	Dropped uint64 `json:"sched_dropped,omitempty"`
	// Canceled counts queued jobs removed before launch: de-queued when
	// their requesting client reset or disconnected, or dropped at
	// admission because their range had been produced meanwhile.
	Canceled uint64 `json:"sched_canceled,omitempty"`
	// Per-priority-class queueing delays. A promoted job books the wait
	// up to its promotion under its prefetch class and the rest under
	// DemandWait, so DemandWait is the time clients actually blocked on
	// queued work — not only the wait of jobs submitted as demand.
	DemandWait SchedClassWait `json:"sched_demand_wait_ns,omitzero"`
	GuidedWait SchedClassWait `json:"sched_guided_wait_ns,omitzero"`
	AgentWait  SchedClassWait `json:"sched_agent_wait_ns,omitzero"`
	// Preempted counts running agent prefetches killed so a node-blocked
	// demand miss could take their nodes (the victim's interval is
	// requeued, not lost).
	Preempted uint64 `json:"sched_preempted,omitempty"`
	// Promoted counts queued prefetch jobs lifted to demand class by a
	// demand open landing inside their range (the scheduler's demand-join
	// rule, part of Config.Priorities).
	Promoted uint64 `json:"sched_promoted,omitempty"`
	// QuotaRounds counts deficit-round-robin credit replenishments;
	// QuotaDeferred counts pops where per-client fairness overrode pure
	// submission order inside a priority class.
	QuotaRounds   uint64 `json:"sched_quota_rounds,omitempty"`
	QuotaDeferred uint64 `json:"sched_quota_deferred,omitempty"`
}
