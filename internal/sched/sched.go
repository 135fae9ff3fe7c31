// Package sched is the re-simulation scheduler of the Data Virtualizer:
// the layer between the DV core and any Launcher that decides which
// re-simulation jobs start now, which wait, and which are never launched
// at all. The paper's DV makes those decisions inline per context (start
// on demand miss, drop prefetches beyond smax, Sec. IV-C/VI); this
// subsystem generalizes them for a multi-client daemon:
//
//   - Admission control. Per-context capacity (the paper's smax) plus an
//     optional global node budget shared by all contexts (the role the
//     batch-system pool used to play at the launcher level). Admission is
//     FIFO without backfilling across contexts, so one hot context cannot
//     starve the others of nodes.
//   - Priority classes. Demand misses outrank guided-prefetch hints,
//     which outrank speculative agent prefetches. With Priorities enabled
//     the queue is drained in class order; without it the scheduler
//     reproduces the paper's rule exactly — demand waits in FIFO order,
//     prefetch beyond capacity is dropped.
//   - Interval coalescing. With Coalesce enabled, a queued job absorbs
//     overlapping or adjacent requests for the same context instead of
//     spawning duplicate restarts: both requests are served by one
//     restart-aligned simulation.
//   - Cancellation. Queued prefetch jobs are de-queued when their
//     requesting client resets or disconnects, and re-validated at
//     admission so stale work is never launched.
//   - Preemption. With a victim policy configured (Config.Preempt), a
//     demand miss blocked on the exhausted node budget may kill a
//     running agent prefetch, youngest first, under the no-waiters
//     rule; the victim's interval is requeued, not lost.
//   - Per-client fairness. A deficit-round-robin quantum
//     (Config.DRRQuantum) replaces pure FIFO inside a priority class,
//     so one greedy client cannot starve its neighbours; coalesced
//     multi-client jobs charge each client they serve its fair share.
//
// The scheduler is deliberately passive: it never starts simulations
// itself and never calls back into the DV. The core submits requests
// (Submit) while holding the owning shard's lock, and drains admitted
// jobs (Next) holding no shard lock; the scheduler's own mutex is the
// innermost lock and is never held across foreign code. Under the
// discrete-event engine every method runs on the single event thread, so
// scheduling decisions — and therefore whole experiments — are
// deterministic.
//
// The zero Config reproduces the pre-scheduler DV semantics bit for bit
// (no coalescing, no priority queueing, unlimited nodes); experiment
// tables are unchanged by routing launches through it.
package sched

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/des"
	"simfs/internal/metrics"
)

// Class is a job priority class, ordered most- to least-urgent.
type Class uint8

// Priority classes: a demand miss blocks a client right now, a guided
// prefetch is an explicit client hint, an agent prefetch is speculative.
const (
	Demand Class = iota
	Guided
	Agent
)

func (c Class) String() string {
	switch c {
	case Demand:
		return "demand"
	case Guided:
		return "guided"
	case Agent:
		return "agent"
	}
	return "unknown"
}

// Request asks for one re-simulation of Ctx producing output steps
// [First, Last] (already realigned to restart boundaries by the core) at
// the given parallelism. Client names the requesting client, demand
// requests included (the DRR quota bills it); "" is a request on nobody's
// behalf.
type Request struct {
	Ctx         string
	First, Last int
	Parallelism int
	Class       Class
	Client      string
}

// Job is a queued (possibly coalesced) request. Its Class and Client are
// derived from its roster (settle): the most urgent class a member holds,
// and the member that reached it first.
type Job struct {
	Request

	// roster is every distinct client the job serves, each at its most
	// urgent class, in the order they reached that class (a member whose
	// class rises rejoins at the end). It is the job's one record of whom
	// it serves: its class and identity, client withdrawal, and the DRR
	// charge, refund and selection all read it. Its backing array starts
	// as one, so a single-client job allocates nothing for it.
	roster []member
	one    [1]member
	// prepaid marks a requeue of already-billed (or directly admitted,
	// never-billed) work — a preemption victim's interval, a pipeline
	// bounce. Its pop skips the DRR charge so one logical interval is
	// billed at most once however often the system requeues it. Prepaid
	// jobs are excluded from coalescing in both directions: absorbing
	// one would lose the flag (double-billing the victim), and a fresh
	// request merging into one would ride for free.
	prepaid bool
	// charged records that the pop billed the roster, so Release refunds
	// exactly what was charged, whatever the policy is by then.
	charged    bool
	seq        uint64
	enqueuedAt time.Duration
}

// member is one client a job serves, at the most urgent class it asked
// for.
type member struct {
	client string
	class  Class
}

// find returns client's roster index, or -1.
func (j *Job) find(client string) int {
	for i, m := range j.roster {
		if m.client == client {
			return i
		}
	}
	return -1
}

// join adds client to the roster at class, or raises the class of a
// member already on it.
func (j *Job) join(client string, class Class) {
	if i := j.find(client); i >= 0 {
		if class >= j.roster[i].class {
			return
		}
		j.roster = slices.Delete(j.roster, i, i+1)
	}
	j.roster = append(j.roster, member{client: client, class: class})
	j.settle()
}

// settle derives the job's class and identity from its roster: the most
// urgent class a member holds, and the first member to reach it.
func (j *Job) settle() {
	best := j.roster[0]
	for _, m := range j.roster[1:] {
		if m.class < best.class {
			best = m
		}
	}
	j.Class, j.Client = best.class, best.client
}

// merge folds other — a request made into a job, or a queued job the
// merge has grown into — into j: the union of their step ranges, the
// wider parallelism, the earlier queue position and enqueue time, and
// other's members joining j's roster after j's own.
func (j *Job) merge(other *Job) {
	j.First = min(j.First, other.First)
	j.Last = max(j.Last, other.Last)
	j.Parallelism = max(j.Parallelism, other.Parallelism)
	j.seq = min(j.seq, other.seq)
	j.enqueuedAt = min(j.enqueuedAt, other.enqueuedAt)
	for _, m := range other.roster {
		j.join(m.client, m.class)
	}
}

// Decision is the outcome of Submit.
type Decision uint8

const (
	// Admitted: capacity was available; the caller must start the
	// simulation now (the scheduler has reserved its capacity).
	Admitted Decision = iota
	// Queued: the request waits in the queue (new job or coalesced into
	// an existing one); the caller should mark its steps as pending.
	Queued
	// Dropped: a prefetch request rejected at capacity.
	Dropped
)

// ctxState is the per-context admission ledger and queue. Keeping one
// queue per context makes every pop O(#contexts) — a context whose smax
// blocks its whole queue is skipped in one step instead of being
// rescanned job by job on every drain of a busy neighbour.
type ctxState struct {
	smax     int // max in-flight + queued jobs (0 = unlimited)
	inflight int // admitted, not yet reported done
	jobs     []*Job
}

// Scheduler coordinates re-simulation launches. All methods are safe for
// concurrent use; the internal mutex is the innermost lock in the system.
type Scheduler struct {
	clock des.Clock
	cfg   Config

	// preemptOn caches cfg.Preempt != PreemptOff && cfg.TotalNodes > 0
	// so WantsPreemption costs one atomic load on the hot path when
	// preemption cannot trigger. demandWaiting is a sticky hint that a
	// demand-class job may be queued: set (under mu) whenever one
	// enqueues, cleared by WantsPreemption once it scans and finds none
	// — so with preemption armed, hit-path Opens probing for preemption
	// never touch the scheduler mutex while no demand work waits.
	preemptOn     atomic.Bool
	demandWaiting atomic.Bool

	mu         sync.Mutex
	ctxs       map[string]*ctxState
	seq        uint64
	nodes      int            // summed parallelism of in-flight jobs
	reclaiming int            // nodes of preempt victims killed but not yet SimDone
	quota      map[string]int // per-client DRR launch credit (deficit)
	// loads accumulates per-client offered load (output steps submitted,
	// demand and prefetch alike), reported in every stats frame. Purely
	// observational: it never feeds back into scheduling decisions.
	loads map[string]uint64
	stats metrics.SchedStats
}

// New returns a scheduler reading time from clock (for queue-wait
// accounting) with the given policy.
func New(clock des.Clock, cfg Config) *Scheduler {
	s := &Scheduler{clock: clock, cfg: cfg, ctxs: map[string]*ctxState{}, quota: map[string]int{}}
	s.preemptOn.Store(cfg.Preempt != PreemptOff && cfg.TotalNodes > 0)
	return s
}

// Config returns the scheduling policy in effect.
func (s *Scheduler) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Update swaps the scheduling policy on a live scheduler: the patch is
// validated and applied to the current config atomically under the
// scheduler's mutex, so concurrent partial updates cannot lose each
// other's fields. It returns the config in effect afterwards — unchanged
// when the patch is refused. The change applies at the next admission
// boundary: in-flight simulations keep the capacity they were admitted
// with, queued jobs are re-ordered under the new policy (priority order
// gained or lost), and queued jobs wider than a newly imposed node budget
// are clamped to it so they stay launchable. Turning Priorities off
// leaves already-queued prefetch jobs queued — the drop rule only applies
// to new submissions.
func (s *Scheduler) Update(p Patch) (Config, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, err := p.Apply(s.cfg)
	if err == nil {
		s.setConfigLocked(cfg)
	}
	return s.cfg, err
}

func (s *Scheduler) setConfigLocked(cfg Config) {
	wasDRR := s.drrActive()
	s.cfg = cfg
	s.preemptOn.Store(s.cfg.Preempt != PreemptOff && s.cfg.TotalNodes > 0)
	for _, cs := range s.ctxs { //simfs:allow maporder per-context clamp and quota backfill are independent per entry
		if s.cfg.TotalNodes > 0 {
			for _, job := range cs.jobs {
				if jobNodes(job.Parallelism) > s.cfg.TotalNodes {
					job.Parallelism = s.cfg.TotalNodes
				}
			}
		}
		if !wasDRR && s.drrActive() {
			// Quota entries normally open at enqueue; DRR enabled live
			// must backfill them for the jobs already queued, or the
			// backlog's clients would drain uncharged (and every pop
			// would replenish over an empty ledger). Only the switch
			// backfills: while DRR stays on, an entry missing for a
			// queued member was dropped with its client on purpose.
			for _, job := range cs.jobs {
				for _, m := range job.roster {
					s.openQuota(m.client)
				}
			}
		}
		// Re-sort under the new ordering; s.less ties on seq, so the sort
		// is deterministic and stable with respect to submission order.
		sort.SliceStable(cs.jobs, func(i, j int) bool { return s.less(cs.jobs[i], cs.jobs[j]) })
	}
}

// Register declares a context and its per-context capacity (the paper's
// smax; 0 = unlimited). Submitting for an unregistered context registers
// it with unlimited capacity.
func (s *Scheduler) Register(ctx string, smax int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctxOf(ctx).smax = smax
}

func (s *Scheduler) ctxOf(name string) *ctxState {
	cs, ok := s.ctxs[name]
	if !ok {
		cs = &ctxState{}
		s.ctxs[name] = cs
	}
	return cs
}

// MaxJobNodes returns the widest parallelism a single job may request
// (0 = unbounded). The core clamps requests before submitting, so a job
// wider than the whole machine degrades to using the whole machine
// instead of being rejected.
func (s *Scheduler) MaxJobNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.TotalNodes
}

func jobNodes(par int) int {
	if par < 1 {
		return 1
	}
	return par
}

// drrActive reports whether deficit-round-robin fairness is in effect:
// a quantum alone is inert — "within a priority class" needs the class
// ordering Priorities provides. Caller holds s.mu.
func (s *Scheduler) drrActive() bool {
	return s.cfg.DRRQuantum > 0 && s.cfg.Priorities
}

// Submit decides the fate of a launch request: start now (Admitted),
// wait (Queued), or reject (Dropped, prefetch only). The caller holds
// the shard lock of req.Ctx; on Admitted it must start the simulation
// and later report it via SimDone.
func (s *Scheduler) Submit(req Request) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.ctxOf(req.Ctx)
	s.noteLoad(req.Client, req.Last-req.First+1)

	atCtxCap := cs.smax > 0 && cs.inflight+len(cs.jobs) >= cs.smax
	// Under a node budget, admission is strictly FIFO: a request never
	// overtakes a job already waiting for nodes, even if it would fit
	// (matching the no-backfill pool it replaces). Jobs queued only by
	// their own context's smax don't count — a full context never gates
	// its neighbours — so the test is for a node-blocked queue head, not
	// for any queued job. Without a budget, contexts are independent and
	// only their own smax gates them.
	atNodeCap := s.cfg.TotalNodes > 0 &&
		(s.nodes+jobNodes(req.Parallelism) > s.cfg.TotalNodes || s.nodeBlockedHead())
	if !atCtxCap && !atNodeCap {
		cs.inflight++
		s.nodes += jobNodes(req.Parallelism)
		return Admitted
	}
	if req.Class != Demand && !s.cfg.Priorities {
		// The paper's rule: "Once smax simulations are running, SimFS
		// will not be able to prefetch new ones" (Sec. VI).
		s.stats.Dropped++
		return Dropped
	}
	s.enqueue(req, false)
	return Queued
}

// loadCap bounds the per-client load ledger; beyond it new client names
// fold into a shared overflow bucket so an ephemeral-client storm
// cannot grow the map without bound.
const loadCap = 4096

// loadOverflow is the shared bucket for clients beyond loadCap.
const loadOverflow = "~other"

// Dropped books n prefetch requests of client, of steps output steps in
// all, that the caller settled without submitting: an earlier request of
// the same decision was Dropped, and a refusal changes no admission
// state, so each would have been too. It accrues their load and counts
// them dropped, as their n Submits would have.
func (s *Scheduler) Dropped(client string, steps, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteLoad(client, steps)
	s.stats.Dropped += uint64(n)
}

// noteLoad accrues steps submitted output steps against client for the
// ClientLoads skew signal. Caller holds s.mu.
func (s *Scheduler) noteLoad(client string, steps int) {
	if client == "" {
		return
	}
	if s.loads == nil {
		s.loads = map[string]uint64{}
	}
	if _, ok := s.loads[client]; !ok && len(s.loads) >= loadCap {
		client = loadOverflow
	}
	s.loads[client] += uint64(steps)
}

// ClientLoads snapshots the cumulative per-client offered load (output
// steps submitted, demand and prefetch alike) since the scheduler
// started. Counters are monotone — a disconnect does not remove its
// client — so two snapshots diff into a per-window load distribution.
// Every stats frame carries it, and simfs-ctl stats prints it.
func (s *Scheduler) ClientLoads() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.loads) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(s.loads))
	for c, n := range s.loads {
		out[c] = n
	}
	return out
}

// PromoteDemand lifts a queued non-demand job whose range covers step
// to demand class — the demand-join half of Config.Priorities: a demand
// open landing inside a queued prefetch job's promise submits nothing
// (the step is already promised, so not even Coalesce sees the
// interest), and the job must stop draining at prefetch priority while
// a client blocks on it. Without Priorities nothing is re-ordered and
// the call is a no-op, which keeps the zero Config paper-exact. The job
// is re-inserted at its demand-order position, the opening client joins
// its roster at demand class (and so becomes its identity and is billed
// with the other members), and the demand-waiting hint arms so the
// caller's preemption probe sees the promoted head. Reports whether a
// job was promoted.
func (s *Scheduler) PromoteDemand(ctx string, step int, client string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cfg.Priorities {
		return false
	}
	cs, ok := s.ctxs[ctx]
	if !ok {
		return false
	}
	for i, job := range cs.jobs {
		if job.Class == Demand || step < job.First || step > job.Last {
			continue
		}
		// Demand interest begins now: the wait accrued so far belongs to
		// the job's prefetch class (book it there, as if the job retired
		// and re-entered), so the demand-wait ledger only ever measures
		// time a client actually blocked on queued work.
		if wait := s.clock.Now() - job.enqueuedAt; wait > 0 {
			cw := s.classWait(job.Class)
			cw.Jobs++
			cw.Wait += wait
		}
		job.enqueuedAt = s.clock.Now()
		job.join(client, Demand)
		if s.drrActive() {
			s.openQuota(client)
		}
		s.removeAt(cs, i)
		s.insert(cs, job)
		s.demandWaiting.Store(true)
		s.stats.Promoted++
		return true
	}
	return false
}

// nodeBlockedHead reports whether some context's queue head is admissible
// by its smax and therefore waiting on the node budget. Caller holds
// s.mu.
func (s *Scheduler) nodeBlockedHead() bool {
	for _, cs := range s.ctxs { //simfs:allow maporder existence scan; any order reaches the same boolean
		if cs.admissible() {
			return true
		}
	}
	return false
}

// admissible reports whether cs has queued work and smax room to start
// its head.
func (cs *ctxState) admissible() bool {
	return len(cs.jobs) > 0 && (cs.smax == 0 || cs.inflight < cs.smax)
}

// enqueue queues a request as a job of its own, or merges it into an
// overlapping queued job under Coalesce. It returns the freshly queued
// job, or nil when the request was absorbed. Prepaid requests (system
// requeues) always become their own job — see Job.prepaid. Caller holds
// s.mu.
func (s *Scheduler) enqueue(req Request, prepaid bool) *Job {
	if s.drrActive() {
		// Open the client's quota entry so DRR selection and
		// replenishment see every client with queued work, not just the
		// already-charged ones.
		s.openQuota(req.Client)
	}
	if req.Class == Demand {
		// Covers both a new demand job and a demand merge promoting a
		// queued prefetch job; a cascade absorbing an existing demand
		// job finds the flag already set (it only clears once no demand
		// job is queued at all).
		s.demandWaiting.Store(true)
	}
	if s.cfg.TotalNodes > 0 && jobNodes(req.Parallelism) > s.cfg.TotalNodes {
		// Same invariant Update enforces on a budget shrink: every
		// queued job must stay launchable. Requeues that bypass the
		// core's admission-time clamp (preemption, pipeline bounces)
		// could otherwise wedge the no-backfill queue head forever
		// after a live budget reduction.
		req.Parallelism = s.cfg.TotalNodes
	}
	cs := s.ctxOf(req.Ctx)
	// The request made into a job: it stays on the stack when a queued
	// job absorbs it, and only a job that queues is allocated.
	in := Job{
		Request: req, roster: []member{{client: req.Client, class: req.Class}},
		seq: s.seq + 1, enqueuedAt: s.clock.Now(),
	}
	if s.cfg.Coalesce && !prepaid && s.absorb(cs, &in) {
		s.stats.Coalesced++
		return nil
	}
	s.seq++
	job := &Job{Request: req, prepaid: prepaid, seq: in.seq, enqueuedAt: in.enqueuedAt}
	job.roster = append(job.one[:0], in.roster...)
	s.insert(cs, job)
	s.stats.Queued++
	return job
}

// absorb merges in into the first queued job of cs whose step range
// overlaps or touches in's, then cascades: the grown range may now touch
// further queued jobs, which fold in too. The merged job keeps the
// earliest queue position of its parts unless its class reorders it. It
// reports whether in was absorbed.
func (s *Scheduler) absorb(cs *ctxState, in *Job) bool {
	i := overlapping(cs, in)
	if i < 0 {
		return false
	}
	job := cs.jobs[i]
	s.removeAt(cs, i)
	job.merge(in)
	for i = overlapping(cs, job); i >= 0; i = overlapping(cs, job) {
		job.merge(cs.jobs[i])
		s.removeAt(cs, i)
	}
	s.insert(cs, job)
	return true
}

// overlapping returns the index of a queued job of cs overlapping or
// adjacent to job (which is not queued), or -1. Prepaid requeues never
// merge: folding one into a billed job would lose its billing exemption.
func overlapping(cs *ctxState, job *Job) int {
	for i, other := range cs.jobs {
		if other.prepaid {
			continue
		}
		if other.First > job.Last+1 || job.First > other.Last+1 {
			continue
		}
		return i
	}
	return -1
}

// less orders a context's queue: class-major when Priorities is on,
// submission order within a class (and overall when off).
func (s *Scheduler) less(a, b *Job) bool {
	if s.cfg.Priorities && a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.seq < b.seq
}

// insert places job at its ordered position in cs's queue. Caller holds
// s.mu.
func (s *Scheduler) insert(cs *ctxState, job *Job) {
	i := len(cs.jobs)
	for i > 0 && s.less(job, cs.jobs[i-1]) {
		i--
	}
	cs.jobs = append(cs.jobs, nil)
	copy(cs.jobs[i+1:], cs.jobs[i:])
	cs.jobs[i] = job
}

// removeAt deletes the i-th entry of cs's queue preserving order. Caller
// holds s.mu.
func (s *Scheduler) removeAt(cs *ctxState, i int) {
	copy(cs.jobs[i:], cs.jobs[i+1:])
	cs.jobs[len(cs.jobs)-1] = nil
	cs.jobs = cs.jobs[:len(cs.jobs)-1]
}

// Next pops the most urgent admissible queued job, reserving its
// capacity: the caller must either start the simulation (and later call
// SimDone) or return the reservation with Release. Contexts at their smax
// are skipped whole — a full context never blocks its neighbours — and
// among the remaining contexts' queue heads the best (class, submission)
// order wins, which is cross-context FIFO fairness within a priority
// class. Under DRR fairness the best-funded job of that class wins
// instead (fairest) and the pop bills its roster. Node admission is FIFO:
// when the chosen job does not fit the node budget nothing behind it runs
// either (no backfilling, matching a conservatively crowded HPC
// partition).
func (s *Scheduler) Next() (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var head *ctxState
	for _, cs := range s.ctxs { //simfs:allow maporder less is a total order (seq tiebreak): the minimum is unique
		if cs.admissible() && (head == nil || s.less(cs.jobs[0], head.jobs[0])) {
			head = cs
		}
	}
	if head == nil {
		return Job{}, false
	}
	fair := s.drrActive()
	cs, i := head, 0
	if fair {
		cs, i = s.fairest(head.jobs[0].Class)
	}
	job := cs.jobs[i]
	if s.cfg.TotalNodes > 0 && s.nodes+jobNodes(job.Parallelism) > s.cfg.TotalNodes {
		return Job{}, false
	}
	if job != head.jobs[0] {
		s.stats.QuotaDeferred++
	}
	if fair && !job.prepaid {
		if d := s.deficitOf(job); d <= 0 {
			// Even the best-funded active client is out of credit: grant
			// the next round before charging.
			s.replenishQuota(d)
		}
		s.chargeQuota(job)
		job.charged = true
	}
	s.removeAt(cs, i)
	cs.inflight++
	s.nodes += jobNodes(job.Parallelism)
	s.noteAdmitted(job)
	return *job, true
}

// noteAdmitted books a popped job's queue wait into its class counters.
// Caller holds s.mu.
func (s *Scheduler) noteAdmitted(job *Job) {
	wait := s.clock.Now() - job.enqueuedAt
	if wait < 0 {
		wait = 0
	}
	cw := s.classWait(job.Class)
	cw.Jobs++
	cw.Wait += wait
}

func (s *Scheduler) classWait(c Class) *metrics.SchedClassWait {
	switch c {
	case Demand:
		return &s.stats.DemandWait
	case Guided:
		return &s.stats.GuidedWait
	default:
		return &s.stats.AgentWait
	}
}

// Release returns the capacity reserved by Next for a job the caller
// decided not to start (admission-time revalidation found it stale). A
// context dropped (deregistered) between the pop and the release keeps
// only the node accounting — re-creating its ledger would leave a
// negative inflight count behind. The DRR charge the pop billed, if it
// billed one, is refunded: work that never ran must not count against
// its clients.
func (s *Scheduler) Release(job Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.ctxs[job.Ctx]; ok {
		cs.inflight--
	}
	s.nodes -= jobNodes(job.Parallelism)
	if job.charged {
		s.refundQuota(&job)
	}
	s.stats.Canceled++
}

// SimDone reports that a launched simulation ended (completed, failed or
// killed), freeing its context slot and nodes. nodes must be the
// parallelism the job was admitted with. For admitted jobs dismantled
// before launch — parked pipeline placeholders — use ReleaseSlot: their
// nodes were already returned by ParkNodes. A context deregistered while
// the simulation drained keeps only the node accounting: re-creating the
// ledger would leave a ghost context with a negative inflight count.
func (s *Scheduler) SimDone(ctx string, nodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.simDoneLocked(ctx, nodes)
}

// SimDonePreempted is SimDone for a preemption victim: the node return
// and the reclaim-ledger settlement land in one critical section, so no
// observer ever sees the victim's nodes both returned and still counted
// as being reclaimed.
func (s *Scheduler) SimDonePreempted(ctx string, nodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.simDoneLocked(ctx, nodes)
	s.reclaiming -= jobNodes(nodes)
}

func (s *Scheduler) simDoneLocked(ctx string, nodes int) {
	if cs, ok := s.ctxs[ctx]; ok {
		cs.inflight--
	}
	s.nodes -= jobNodes(nodes)
}

// ParkNodes returns an admitted job's nodes to the budget while it waits
// for upstream inputs (pipeline virtualization): a parked simulation
// consumes its context slot but no nodes, so the upstream re-simulation
// it depends on can be admitted — holding the budget across the
// dependency would deadlock the pipeline.
func (s *Scheduler) ParkNodes(nodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes -= jobNodes(nodes)
}

// ClaimNodes tries to re-reserve a parked job's nodes once its inputs are
// ready. On false the budget is busy: the caller must give up its slot
// (ReleaseSlot) and requeue the work (Enqueue) instead of launching.
func (s *Scheduler) ClaimNodes(nodes int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.TotalNodes > 0 && s.nodes+jobNodes(nodes) > s.cfg.TotalNodes {
		return false
	}
	s.nodes += jobNodes(nodes)
	return true
}

// ReleaseSlot frees the context slot of an admitted-but-never-launched
// job whose nodes are already parked (pipeline placeholder dismantled or
// requeued). Like Release and SimDone it tolerates a context
// deregistered between the admission and the release: the ledger is
// gone, so there is no slot left to return — re-creating it here would
// plant a ghost context with inflight −1 that CheckInvariants (and any
// later re-registration) would trip over.
func (s *Scheduler) ReleaseSlot(ctx string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.ctxs[ctx]; ok {
		cs.inflight--
	}
}

// Enqueue queues a request unconditionally, bypassing admission — used to
// requeue work the system itself displaced: a pipeline job whose
// upstream inputs became ready while the node budget was busy, or a
// preemption victim's interval. It drains like any queued job once
// capacity frees. The job is marked prepaid: requeued work is never
// billed again by the DRR quota — the client already paid at the
// original pop (or was admitted without queueing and owes nothing), and
// system-initiated bounces are not the client's doing.
func (s *Scheduler) Enqueue(req Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enqueue(req, true)
}

// CancelClient withdraws one client's interest from the queued prefetch
// jobs of a context. A job is de-queued only when the last client on its
// roster withdraws (a coalesced job may serve several) and only if keep
// reports nobody else wants its range (waiters or references in the
// core), mirroring the paper's rule that a simulation is killed only
// when nobody waits for its output. The removed jobs are returned so the
// core can dismantle their pending markers.
//
// keep runs without the scheduler lock held (the scheduler mutex is the
// innermost lock and never wraps foreign code); candidates are
// re-checked for membership before removal, so a job popped by a
// concurrent drain in the meantime is simply no longer cancelable.
func (s *Scheduler) CancelClient(ctx, client string, keep func(first, last int) bool) []Job {
	s.mu.Lock()
	cs, ok := s.ctxs[ctx]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	var candidates []*Job
	for _, job := range cs.jobs {
		if job.Class != Demand && job.find(client) >= 0 {
			candidates = append(candidates, job)
		}
	}
	s.mu.Unlock()
	if len(candidates) == 0 {
		return nil
	}

	kept := make([]bool, len(candidates))
	for i, job := range candidates {
		kept[i] = keep != nil && keep(job.First, job.Last)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var removed []Job
	for i, job := range candidates {
		if kept[i] {
			continue
		}
		// The job may have been admitted (or merged away) while keep ran.
		idx := slices.Index(cs.jobs, job)
		if idx < 0 {
			continue
		}
		// Withdraw this client (unless a concurrent withdrawal already
		// did); other members keep the job alive at the class and
		// identity the rest of the roster gives it (the priority position
		// follows the class, so the job is re-inserted when it changes),
		// and the withdrawn client stops paying for it.
		k := job.find(client)
		if k < 0 {
			continue
		}
		if len(job.roster) > 1 {
			class := job.Class
			job.roster = slices.Delete(job.roster, k, k+1)
			job.settle()
			if job.Class != class {
				s.removeAt(cs, idx)
				s.insert(cs, job)
			}
			continue
		}
		removed = append(removed, *job)
		s.removeAt(cs, idx)
		s.stats.Canceled++
	}
	return removed
}

// DropContext forgets a context being deregistered: its queued jobs are
// removed (and returned, so the core can dismantle their pending
// markers) and its admission ledger is deleted. The caller guarantees no
// simulation of the context is in flight; a non-zero inflight count is a
// ledger bug surfaced by CheckInvariants, so it is dropped regardless.
func (s *Scheduler) DropContext(ctx string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.ctxs[ctx]
	if !ok {
		return nil
	}
	var removed []Job
	for _, job := range cs.jobs {
		removed = append(removed, *job)
		s.stats.Canceled++
	}
	delete(s.ctxs, ctx)
	return removed
}

// QueuedRanges lists the step ranges of a context's queued jobs (for the
// core to reconcile its pending-step markers after a cancellation).
func (s *Scheduler) QueuedRanges(ctx string) [][2]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.ctxs[ctx]
	if !ok {
		return nil
	}
	var rs [][2]int
	for _, job := range cs.jobs {
		rs = append(rs, [2]int{job.First, job.Last})
	}
	return rs
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() metrics.SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, cs := range s.ctxs {
		st.QueueDepth += len(cs.jobs)
	}
	return st
}

// CheckInvariants audits the internal ledgers (used by the core's
// property tests).
func (s *Scheduler) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sorted iteration so the first violation reported is deterministic.
	for _, name := range slices.Sorted(maps.Keys(s.ctxs)) {
		cs := s.ctxs[name]
		if cs.inflight < 0 {
			return fmt.Errorf("sched: context %q has negative inflight %d", name, cs.inflight)
		}
		for i, job := range cs.jobs {
			if job.First > job.Last || job.First < 1 {
				return fmt.Errorf("sched: %q job %d has malformed range [%d,%d]", name, i, job.First, job.Last)
			}
			if job.Ctx != name {
				return fmt.Errorf("sched: job for %q filed under %q", job.Ctx, name)
			}
			if i > 0 && s.less(job, cs.jobs[i-1]) {
				return fmt.Errorf("sched: %q queue out of order at %d", name, i)
			}
		}
	}
	if s.nodes < 0 {
		return fmt.Errorf("sched: negative node usage %d", s.nodes)
	}
	if s.reclaiming < 0 {
		return fmt.Errorf("sched: negative preempt-reclaim ledger %d", s.reclaiming)
	}
	if s.reclaiming > s.nodes {
		return fmt.Errorf("sched: reclaiming %d nodes but only %d in flight", s.reclaiming, s.nodes)
	}
	return nil
}
