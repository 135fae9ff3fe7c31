package metrics

import "time"

// SchedClassWait accumulates the queueing delay of one scheduler priority
// class: how many jobs were admitted from the queue and how long they
// waited between enqueue and admission, in the scheduler's time source
// (virtual time under the DES, wall time under the daemon).
type SchedClassWait struct {
	// Jobs counts jobs of this class admitted from the queue (jobs
	// admitted immediately never enter the queue and are not counted).
	Jobs uint64
	// Wait is the cumulative enqueue→admission delay of those jobs.
	Wait time.Duration
}

// SchedStats summarizes the re-simulation scheduler (internal/sched): the
// fate of submitted launch requests and the queue behavior. The stats
// frame of the wire protocol carries the headline counters so operators
// can see queue pressure and coalescing effectiveness per daemon.
type SchedStats struct {
	// Queued counts requests that entered the queue as new jobs.
	Queued uint64
	// Coalesced counts requests merged into an already-queued job
	// instead of becoming jobs of their own.
	Coalesced uint64
	// Dropped counts prefetch requests rejected at capacity (the paper's
	// smax rule: a full DV does not prefetch).
	Dropped uint64
	// Canceled counts queued jobs removed before launch: de-queued when
	// their requesting client reset or disconnected, or dropped at
	// admission because their range had been produced meanwhile.
	Canceled uint64
	// Preempted counts running agent prefetches killed so a node-blocked
	// demand miss could take their nodes (the victim's interval is
	// requeued, not lost).
	Preempted uint64
	// Promoted counts queued prefetch jobs lifted to demand class by a
	// demand open landing inside their range (the scheduler's demand-join
	// rule, part of Config.Priorities).
	Promoted uint64
	// QuotaRounds counts deficit-round-robin credit replenishments;
	// QuotaDeferred counts pops where per-client fairness overrode pure
	// submission order inside a priority class.
	QuotaRounds   uint64
	QuotaDeferred uint64
	// QueueDepth is the current number of queued jobs.
	QueueDepth int
	// Per-priority-class queueing delays. A promoted job books the wait
	// up to its promotion under its prefetch class and the rest under
	// DemandWait, so DemandWait is the time clients actually blocked on
	// queued work — not only the wait of jobs submitted as demand.
	DemandWait SchedClassWait
	GuidedWait SchedClassWait
	AgentWait  SchedClassWait
}
