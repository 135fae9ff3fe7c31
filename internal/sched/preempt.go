package sched

import (
	"fmt"
	"time"
)

// PreemptPolicy turns preemption on: with the node budget exhausted, a
// demand miss may kill (not merely outrank) a running speculative agent
// prefetch and take its nodes. The paper's no-waiters rule still gates
// eligibility — the core only offers agent-class candidates nobody
// waits for or references — and the victim's interval is requeued so
// the speculative work is deferred, not lost.
//
// The zero value (PreemptOff) never preempts, preserving the paper-exact
// semantics of the zero Config. Youngest-first is the only victim order:
// DESIGN.md's scheduler section has the ablation evidence against the
// alternatives (cheapest-remaining-first, a sunk-cost guard, guided-class
// victims).
type PreemptPolicy uint8

const (
	// PreemptOff disables preemption (the paper's rule: a running
	// simulation is only ever killed by a prefetch reset or disconnect).
	PreemptOff PreemptPolicy = iota
	// PreemptYoungest kills the most recently launched candidate: it has
	// sunk the least compute, so the wasted work is minimal.
	PreemptYoungest
)

func (p PreemptPolicy) String() string {
	switch p {
	case PreemptOff:
		return "off"
	case PreemptYoungest:
		return "youngest"
	}
	return "unknown"
}

// ParsePreemptPolicy maps a wire/flag name to a policy. The empty string
// parses as PreemptOff so unset config fields stay paper-exact.
func ParsePreemptPolicy(name string) (PreemptPolicy, error) {
	switch name {
	case "", "off", "none":
		return PreemptOff, nil
	case "youngest":
		return PreemptYoungest, nil
	}
	return PreemptOff, fmt.Errorf("sched: unknown preempt policy %q (want off|youngest)", name)
}

// MarshalText and UnmarshalText make the policy travel by name — in
// JSON (Config, Patch) and through flag.TextVar — so an unknown name is
// refused where it is decoded.
func (p PreemptPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *PreemptPolicy) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePreemptPolicy(string(text))
	return err
}

// VictimEligible reports whether a running simulation of the given
// class may be offered as a preemption victim: only speculative agent
// work. A guided prefetch is an explicit client hint and demand work
// has a client blocked on it. The paper's no-waiters rule is enforced
// by the core on top of this.
func VictimEligible(class Class) bool { return class == Agent }

// Victim describes one preemption candidate: a running agent prefetch
// the core found killable under the no-waiters rule. The victim's node
// count is re-read authoritatively under its shard lock at kill time,
// so it is deliberately not part of the selection record.
type Victim struct {
	SimID      int64
	LaunchedAt time.Duration
}

// Choose picks the victim index: the latest launch (-1 when the policy
// is off or no candidate exists). Ties break toward the later-launched
// simulation id, so the choice is deterministic regardless of candidate
// order.
func (p PreemptPolicy) Choose(cands []Victim) int {
	if p == PreemptOff || len(cands) == 0 {
		return -1
	}
	best := 0
	for i, c := range cands {
		b := cands[best]
		if c.LaunchedAt > b.LaunchedAt || c.LaunchedAt == b.LaunchedAt && c.SimID > b.SimID {
			best = i
		}
	}
	return best
}

// WantsPreemption reports whether a queued demand job is blocked on the
// node budget (its context has smax room, the budget does not) and
// killing more running work could unblock it: nodes already being
// reclaimed by in-flight preemptions count as available, so one blocked
// demand job never cascades into killing several victims at once. Only
// queue *heads* are considered — with Priorities off, a demand job
// queued behind a prefetch job in the same context deliberately does
// not trigger: under FIFO no-backfill it is not next, and killing
// running speculative work to admit other queued speculative work would
// be pure churn (preemption pairs naturally with Priorities, which sort
// demand to the head). The fast path is two atomic loads — preemption
// off, or armed with no demand work queued anywhere (the common
// hit-path case) — so probing after every Open never serializes hit
// traffic on the scheduler mutex.
func (s *Scheduler) WantsPreemption() bool {
	if !s.preemptOn.Load() || !s.demandWaiting.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Preempt == PreemptOff || s.cfg.TotalNodes <= 0 {
		return false
	}
	anyDemand := false
	want := false
	for _, cs := range s.ctxs { //simfs:allow maporder existence scan; the booleans are the same whatever order finds them
		if len(cs.jobs) == 0 {
			continue
		}
		for _, job := range cs.jobs {
			if job.Class == Demand {
				anyDemand = true
				break
			}
		}
		if cs.smax > 0 && cs.inflight >= cs.smax {
			continue
		}
		job := cs.jobs[0]
		if job.Class != Demand {
			continue
		}
		if s.nodes-s.reclaiming+jobNodes(job.Parallelism) > s.cfg.TotalNodes {
			want = true
		}
	}
	if !anyDemand {
		// Nothing demand-class is queued: future probes skip the mutex
		// until the next demand enqueue re-arms the hint (both updates
		// happen under s.mu, so the hint cannot lose a race).
		s.demandWaiting.Store(false)
	}
	return want
}

// MarkPreempted records that a running simulation holding the given
// parallelism was killed by preemption. Its nodes stay charged until the
// launcher reports the death (SimDone), but they no longer count as
// demand-blocking in WantsPreemption.
func (s *Scheduler) MarkPreempted(nodes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reclaiming += jobNodes(nodes)
	s.stats.Preempted++
}

// --- Per-client deficit-round-robin quotas ---------------------------------

// openQuota gives client a quota entry (zero credit) if it has none.
// Caller holds s.mu.
func (s *Scheduler) openQuota(client string) {
	if _, ok := s.quota[client]; !ok {
		s.quota[client] = 0
	}
}

// share is what the DRR quota bills each roster member for the job: an
// even part (ceiling) of its output-step cost, so a coalesced
// multi-client job — demand requesters included — splits the cost
// instead of billing whoever happened to submit first.
func (j *Job) share() int {
	cost, n := j.Last-j.First+1, len(j.roster)
	return (cost + n - 1) / n
}

// chargeQuota bills a popped job's roster its shares. Only existing
// ledger entries are charged: a client whose entry was dropped on
// disconnect while its job sat queued must not be re-planted as a ghost
// that no cleanup path ever deletes again. Caller holds s.mu.
func (s *Scheduler) chargeQuota(job *Job) {
	share := job.share()
	for _, m := range job.roster {
		if d, ok := s.quota[m.client]; ok {
			s.quota[m.client] = d - share
		}
	}
}

// replenishQuota grants a new DRR round when the best-funded candidate
// about to be admitted is out of credit (bestDef ≤ 0): every client's
// deficit shifts up so that candidate holds exactly one quantum, capped
// at the quantum so idle clients cannot hoard unbounded credit. The
// shift preserves the relative debts of the active clients, which is
// what keeps the round-robin weighted by past consumption. Caller holds
// s.mu.
func (s *Scheduler) replenishQuota(bestDef int) {
	add := s.cfg.DRRQuantum - bestDef
	for c, d := range s.quota { //simfs:allow maporder each client's shift-and-cap is independent of the others
		d += add
		if d > s.cfg.DRRQuantum {
			d = s.cfg.DRRQuantum
		}
		s.quota[c] = d
	}
	s.stats.QuotaRounds++
}

// refundQuota reverses chargeQuota for a popped job that was released
// unlaunched (stale revalidation): the same shares come back, capped at
// the quantum (if one is set) so a refund cannot mint more credit than a
// round grants. Caller holds s.mu.
func (s *Scheduler) refundQuota(job *Job) {
	share := job.share()
	for _, m := range job.roster {
		if d, ok := s.quota[m.client]; ok {
			d += share
			if q := s.cfg.DRRQuantum; q > 0 && d > q {
				d = q
			}
			s.quota[m.client] = d
		}
	}
}

// deficitOf returns the launch credit backing a job: that of its
// best-funded roster member (a coalesced merge serves the least-served
// client too). Unknown clients count as zero. Caller holds s.mu.
func (s *Scheduler) deficitOf(job *Job) int {
	best := s.quota[job.roster[0].client]
	for _, m := range job.roster[1:] {
		best = max(best, s.quota[m.client])
	}
	return best
}

// DropClientQuota forgets a disconnected client's quota accounting: its
// debt dies with it instead of handicapping an unrelated client that
// later reuses the name.
func (s *Scheduler) DropClientQuota(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.quota, client)
}

// QuotaDebt reports a client's current DRR deficit (negative = in debt)
// and whether the client has any quota accounting at all.
func (s *Scheduler) QuotaDebt(client string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.quota[client]
	return d, ok
}

// fairest is Next's pick under deficit-round-robin fairness
// (Config.DRRQuantum > 0 with Priorities on, so the queues are
// class-sorted): among the admissible queued jobs of the given class —
// the most urgent class at any admissible queue head — the job whose
// best-funded member holds the most launch credit; submission order
// breaks ties, so equal-credit clients drain FIFO and the zero-quantum
// behaviour is a strict special case. Unlike the FIFO pick this scans
// past a context's queue head — that is the point: a greedy client's
// burst at the head must not starve a neighbour's job queued behind it
// in the same context. Caller holds s.mu.
func (s *Scheduler) fairest(class Class) (*ctxState, int) {
	var best *ctxState
	bestIdx := -1
	for _, cs := range s.ctxs { //simfs:allow maporder winner is the unique best by (credit, seq); scan order is washed out
		if !cs.admissible() {
			continue
		}
		for i, job := range cs.jobs {
			if job.Class != class {
				break // queues are class-sorted: the run of class is a prefix
			}
			if best == nil || s.quotaBetter(job, best.jobs[bestIdx]) {
				best, bestIdx = cs, i
			}
		}
	}
	return best, bestIdx
}

// quotaBetter orders two same-class candidates: more launch credit
// first, submission order on ties. Caller holds s.mu.
func (s *Scheduler) quotaBetter(a, b *Job) bool {
	if da, db := s.deficitOf(a), s.deficitOf(b); da != db {
		return da > db
	}
	return a.seq < b.seq
}
