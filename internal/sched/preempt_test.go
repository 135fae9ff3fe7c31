package sched

import "testing"

func TestParsePreemptPolicy(t *testing.T) {
	cases := map[string]PreemptPolicy{
		"": PreemptOff, "off": PreemptOff, "none": PreemptOff,
		"youngest": PreemptYoungest,
	}
	for name, want := range cases {
		got, err := ParsePreemptPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePreemptPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// "cheapest" was a policy once; it is refused like any unknown name.
	for _, name := range []string{"eldest", "cheapest"} {
		if _, err := ParsePreemptPolicy(name); err == nil {
			t.Errorf("unknown policy name %q parsed without error", name)
		}
	}
	for p, want := range map[PreemptPolicy]string{
		PreemptOff: "off", PreemptYoungest: "youngest", PreemptPolicy(9): "unknown",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// WantsPreemption fires only for a demand job blocked on the node budget
// while its context has smax room — and stops firing once a victim's
// nodes are marked as being reclaimed.
func TestWantsPreemptionOnlyForNodeBlockedDemand(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, TotalNodes: 2, Preempt: PreemptYoungest})
	s.Register("c", 0)
	r := req("c", 1, 4, Agent, "spec")
	r.Parallelism = 2
	if d := s.Submit(r); d != Admitted {
		t.Fatalf("agent prefetch = %v, want Admitted", d)
	}
	if s.WantsPreemption() {
		t.Fatal("no demand queued: nothing to preempt for")
	}
	if d := s.Submit(req("c", 9, 12, Agent, "spec")); d != Queued {
		t.Fatalf("second prefetch = %v, want Queued", d)
	}
	if s.WantsPreemption() {
		t.Fatal("queued prefetch must not trigger preemption")
	}
	if d := s.Submit(req("c", 17, 20, Demand, "a")); d != Queued {
		t.Fatalf("demand = %v, want Queued (node-blocked)", d)
	}
	if !s.WantsPreemption() {
		t.Fatal("node-blocked demand should want preemption")
	}
	// A victim being reclaimed covers the need: no cascade kill.
	s.MarkPreempted(2)
	if s.WantsPreemption() {
		t.Fatal("reclaiming nodes must suppress further preemption")
	}
	s.SimDonePreempted("c", 2)
	j, ok := s.Next()
	if !ok || j.Class != Demand {
		t.Fatalf("popped %+v, want the demand job after the victim died", j)
	}
	if st := s.Stats(); st.Preempted != 1 {
		t.Errorf("Preempted = %d, want 1", st.Preempted)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Preemption is inert without a node budget and with the policy off.
func TestWantsPreemptionGates(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, Preempt: PreemptYoungest})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "a"))
	s.Submit(req("c", 9, 12, Demand, "a"))
	if s.WantsPreemption() {
		t.Fatal("smax-blocked demand without a node budget must not preempt")
	}
	s2 := New(&manualClock{}, Config{Priorities: true, TotalNodes: 1})
	s2.Register("c", 0)
	s2.Submit(req("c", 1, 4, Agent, "spec"))
	s2.Submit(req("c", 9, 12, Demand, "a"))
	if s2.WantsPreemption() {
		t.Fatal("PreemptOff must never want preemption")
	}
}

// A live sched-set flip turns preemption on and off without a restart.
func TestPreemptFlipsLive(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, TotalNodes: 1})
	s.Register("c", 0)
	s.Submit(req("c", 1, 4, Agent, "spec"))
	s.Submit(req("c", 9, 12, Demand, "a"))
	if s.WantsPreemption() {
		t.Fatal("preemption off at boot")
	}
	on, off := PreemptYoungest, PreemptOff
	s.Update(Patch{Preempt: &on})
	if !s.WantsPreemption() {
		t.Fatal("live flip to youngest must enable preemption")
	}
	s.Update(Patch{Preempt: &off})
	if s.WantsPreemption() {
		t.Fatal("live flip back to off must disable preemption")
	}
}

// Enqueue (the admission-bypassing requeue path used by preemption and
// pipeline bounces) clamps jobs wider than the node budget, mirroring
// Update's invariant: a queued job must stay launchable, or the
// no-backfill rule would wedge the whole queue behind it forever.
func TestEnqueueClampsToNodeBudget(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, TotalNodes: 4})
	s.Register("c", 0)
	// A budget shrink after admission can leave a running job wider than
	// the budget; its preemption/bounce requeue must be clamped.
	s.Enqueue(Request{Ctx: "c", First: 1, Last: 12, Parallelism: 100, Class: Agent, Client: "spec"})
	j, ok := s.Next()
	if !ok {
		t.Fatal("over-wide requeued job never admitted — it wedged the queue")
	}
	if j.Parallelism != 4 {
		t.Fatalf("requeued parallelism = %d, want clamped to the 4-node budget", j.Parallelism)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Deficit-round-robin fairness ------------------------------------------

// DRR only takes effect alongside Priorities: without classes the queue
// is pure FIFO by definition, and credit must not reorder across
// classes (speculative work overtaking queued demand).
func TestDRRInertWithoutPriorities(t *testing.T) {
	s := New(&manualClock{}, Config{DRRQuantum: 4})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 9, 12, Demand, "greedy"))
	s.Submit(req("c", 17, 20, Demand, "greedy"))
	s.Submit(req("c", 25, 28, Demand, "meek"))
	var owners []string
	for range [3]int{} {
		s.SimDone("c", 1)
		j, _ := s.Next()
		owners = append(owners, j.Client)
	}
	want := []string{"greedy", "greedy", "meek"}
	for i, o := range want {
		if owners[i] != o {
			t.Fatalf("pop order = %v, want pure FIFO %v without Priorities", owners, want)
		}
	}
	if _, ok := s.QuotaDebt("greedy"); ok {
		t.Error("quota charged while DRR is inert")
	}
}

// A system-initiated requeue (preemption victim, pipeline bounce) is
// prepaid: its re-pop must not bill the client a second time for the
// same interval.
func TestDRRRequeueNotDoubleCharged(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 16})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 9, 16, Agent, "bob"))
	s.SimDone("c", 1)
	if _, ok := s.Next(); !ok {
		t.Fatal("expected bob's prefetch")
	}
	charged, _ := s.QuotaDebt("bob")
	// The running job is preempted: SimDone + requeue of the interval.
	s.SimDone("c", 1)
	s.Enqueue(req("c", 9, 16, Agent, "bob"))
	j, ok := s.Next()
	if !ok || j.First != 9 {
		t.Fatalf("popped %+v, want the requeued [9,16]", j)
	}
	if after, _ := s.QuotaDebt("bob"); after != charged {
		t.Errorf("requeue re-billed bob: %d → %d, want unchanged", charged, after)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Prepaid requeues are excluded from coalescing in both directions:
// absorbing one into a billed job would double-bill the victim, and a
// fresh request merging into one would drain uncharged.
func TestDRRPrepaidExcludedFromCoalescing(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true, DRRQuantum: 16})
	s.Register("c", 1)
	s.Submit(req("c", 40, 43, Demand, "x"))
	// A billed job queues, then an overlapping prepaid requeue arrives:
	// they must stay separate.
	s.Submit(req("c", 9, 16, Agent, "bob"))
	s.Enqueue(req("c", 14, 20, Agent, "victim"))
	if got := s.Stats().QueueDepth; got != 2 {
		t.Fatalf("queue depth = %d, want 2 (prepaid requeue must not merge)", got)
	}
	// And a fresh overlapping submission must not ride the prepaid job.
	if d := s.Submit(req("c", 18, 24, Agent, "fresh")); d != Queued {
		t.Fatalf("fresh overlap = %v, want Queued", d)
	}
	if got := s.Stats().QueueDepth; got != 3 {
		t.Fatalf("queue depth = %d, want 3 (fresh work must not merge into the prepaid job)", got)
	}
	s.SimDone("c", 1)
	charged := map[string]bool{}
	for {
		j, ok := s.Next()
		if !ok {
			break
		}
		s.SimDone(j.Ctx, j.Parallelism)
		charged[j.Client] = true
	}
	// The prepaid pop never charged its client: the entry holds full
	// credit (replenish rounds lift uncharged clients to the cap).
	if d, ok := s.QuotaDebt("victim"); !ok || d != 16 {
		t.Errorf("prepaid requeue charged its client: credit=%d ok=%v, want the full 16-step cap", d, ok)
	}
	if d, _ := s.QuotaDebt("fresh"); d == 16 {
		t.Error("fresh overlapping work drained uncharged")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A popped job released unlaunched (stale revalidation) refunds its DRR
// charge: work that never ran must not count against the client.
func TestDRRReleaseRefundsCharge(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 16})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 9, 16, Agent, "bob"))
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok {
		t.Fatal("expected bob's prefetch")
	}
	charged, _ := s.QuotaDebt("bob")
	s.Release(j) // revalidation found it stale
	refunded, _ := s.QuotaDebt("bob")
	if refunded <= charged {
		t.Errorf("release did not refund: %d → %d", charged, refunded)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Release refunds only what the pop charged: a job popped under FIFO
// and released after a live quantum enable was never billed, so its
// client's credit must not grow.
func TestDRRReleaseRefundsOnlyWhatWasCharged(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 9, 12, Agent, "bob"))
	s.Submit(req("c", 20, 23, Agent, "bob")) // still queued at the enable
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 9 {
		t.Fatalf("popped %+v, want bob's [9,12]", j)
	}
	quantum := 8
	s.Update(Patch{DRRQuantum: &quantum})
	before, ok := s.QuotaDebt("bob")
	if !ok {
		t.Fatal("the live enable did not open bob's quota entry")
	}
	s.Release(j)
	if after, _ := s.QuotaDebt("bob"); after != before {
		t.Errorf("release of an uncharged pop moved bob's credit %d → %d", before, after)
	}
}

// The reverse: a job charged at its pop is refunded even when DRR was
// switched off before its release.
func TestDRRReleaseRefundsAfterDisable(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 8})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 9, 12, Agent, "bob"))
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok {
		t.Fatal("expected bob's prefetch")
	}
	// The pop granted a round (bob at 8) and charged 4.
	if d, _ := s.QuotaDebt("bob"); d != 4 {
		t.Fatalf("bob's credit after the pop = %d, want 4", d)
	}
	off := 0
	s.Update(Patch{DRRQuantum: &off})
	s.Release(j)
	if d, _ := s.QuotaDebt("bob"); d != 8 {
		t.Errorf("bob's credit after the release = %d, want the 4-step charge back (8)", d)
	}
}

// One billing rule whenever a job was built: a merge and a promotion
// made before a live quantum enable bill every roster member an even
// share, demand requesters included.
func TestDRRLiveEnableBillsEveryMember(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 10, 17, Agent, "alice"))
	s.Submit(req("c", 14, 21, Demand, "bob")) // merges: [10,21], demand
	s.Submit(req("c", 30, 37, Agent, "carol"))
	if !s.PromoteDemand("c", 33, "dave") {
		t.Fatal("dave's demand open did not promote carol's prefetch")
	}
	quantum := 8
	s.Update(Patch{DRRQuantum: &quantum})
	s.SimDone("c", 1)
	for {
		j, ok := s.Next()
		if !ok {
			break
		}
		s.SimDone(j.Ctx, j.Parallelism)
	}
	// The first pop grants a round (everyone at 8), then [10,21] bills
	// 6 to alice and bob; [30,37] bills 4 to carol and dave.
	want := map[string]int{"alice": 2, "bob": 2, "carol": 4, "dave": 4}
	for client, w := range want {
		if d, ok := s.QuotaDebt(client); !ok || d != w {
			t.Errorf("%s's credit = %d (entry %v), want %d", client, d, ok, w)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A greedy client's burst no longer starves a neighbour inside the same
// class: after the greedy client's first job is charged, the neighbour's
// single job outranks the rest of the burst.
func TestDRRFairnessBreaksBurst(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 4})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x")) // fills the context
	s.Submit(req("c", 10, 13, Agent, "greedy"))
	s.Submit(req("c", 20, 23, Agent, "greedy"))
	s.Submit(req("c", 30, 33, Agent, "greedy"))
	s.Submit(req("c", 40, 43, Agent, "meek"))
	var owners []string
	for range [4]int{} {
		s.SimDone("c", 1)
		j, ok := s.Next()
		if !ok {
			t.Fatal("expected a job")
		}
		owners = append(owners, j.Client)
	}
	want := []string{"greedy", "meek", "greedy", "greedy"}
	for i, o := range want {
		if owners[i] != o {
			t.Fatalf("pop order = %v, want %v", owners, want)
		}
	}
	st := s.Stats()
	if st.QuotaDeferred == 0 {
		t.Error("fairness never overrode FIFO order on this workload")
	}
	if st.QuotaRounds == 0 {
		t.Error("no DRR round was ever granted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Zero quantum keeps pure FIFO: the greedy burst drains in submission
// order (the control for the test above).
func TestDRRZeroQuantumIsFIFO(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 10, 13, Agent, "greedy"))
	s.Submit(req("c", 20, 23, Agent, "greedy"))
	s.Submit(req("c", 40, 43, Agent, "meek"))
	var owners []string
	for range [3]int{} {
		s.SimDone("c", 1)
		j, _ := s.Next()
		owners = append(owners, j.Client)
	}
	want := []string{"greedy", "greedy", "meek"}
	for i, o := range want {
		if owners[i] != o {
			t.Fatalf("pop order = %v, want FIFO %v", owners, want)
		}
	}
	if st := s.Stats(); st.QuotaDeferred != 0 || st.QuotaRounds != 0 {
		t.Errorf("quota counters moved without a quantum: %+v", st)
	}
}

// A coalesced multi-client job charges each roster member its fair share
// instead of billing whoever submitted first.
func TestDRRCoalescedChargesConstituents(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true, DRRQuantum: 8})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 10, 17, Agent, "alice"))
	s.Submit(req("c", 14, 21, Agent, "bob")) // merges into alice's job
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth = %d, want 1 merged job", got)
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 10 || j.Last != 21 {
		t.Fatalf("popped %+v, want the merged [10,21] job", j)
	}
	// Cost 12 over two members: 6 each — equal debt, not 12 on the
	// earlier submitter.
	da, oka := s.QuotaDebt("alice")
	db, okb := s.QuotaDebt("bob")
	if !oka || !okb {
		t.Fatalf("members missing from the quota ledger: alice=%v bob=%v", oka, okb)
	}
	if da != db {
		t.Errorf("member debts diverged: alice=%d bob=%d", da, db)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A coalesced multi-client *demand* merge also splits the bill: demand
// requesters are roster members like prefetch requesters, so the first
// submitter does not pay for everyone.
func TestDRRDemandMergeSplitsCost(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true, DRRQuantum: 8})
	s.Register("c", 1)
	s.Submit(req("c", 40, 43, Demand, "x"))
	s.Submit(req("c", 1, 6, Demand, "alice"))
	s.Submit(req("c", 7, 12, Demand, "bob")) // adjacent: merges into alice's job
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth = %d, want 1 merged demand job", got)
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 1 || j.Last != 12 {
		t.Fatalf("popped %+v, want the merged [1,12] demand job", j)
	}
	da, oka := s.QuotaDebt("alice")
	db, okb := s.QuotaDebt("bob")
	if !oka || !okb {
		t.Fatalf("merged demand clients missing from the ledger: alice=%v bob=%v", oka, okb)
	}
	if da != db {
		t.Errorf("demand merge billed unevenly: alice=%d bob=%d", da, db)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// DropClientQuota releases a disconnected client's quota debt: the name
// starts fresh on reconnect instead of inheriting the old deficit.
func TestDRRQuotaReleasedOnDisconnect(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 4})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 10, 19, Agent, "heavy"))
	s.SimDone("c", 1)
	if _, ok := s.Next(); !ok {
		t.Fatal("expected the prefetch job")
	}
	if d, ok := s.QuotaDebt("heavy"); !ok || d >= 0 {
		t.Fatalf("debt = %d, %v; want a charged (negative) entry", d, ok)
	}
	s.DropClientQuota("heavy")
	if _, ok := s.QuotaDebt("heavy"); ok {
		t.Fatal("quota entry survived the disconnect")
	}
}

// A job whose client disconnected while it sat queued must not re-plant
// a ghost quota entry when it finally pops: over a long-lived daemon's
// client churn the ledger would otherwise grow without bound.
func TestDRRQuotaNotRecreatedAfterDrop(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 4})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	// A demand job stays queued across its client's disconnect
	// (CancelClient only withdraws prefetch work).
	s.Submit(req("c", 9, 12, Demand, "gone"))
	s.DropClientQuota("gone")
	s.SimDone("c", 1)
	if _, ok := s.Next(); !ok {
		t.Fatal("expected the orphaned demand job")
	}
	if _, ok := s.QuotaDebt("gone"); ok {
		t.Error("charging the orphaned job re-created the dropped client's quota entry")
	}
}

// Nor may a reconfiguration that leaves DRR on: only the switch from
// off to on backfills the ledger, so a later Update (any sched-set that
// leaves the quantum on) does not undo DropClientQuota for a demand job
// that outlived its client.
func TestDRRQuotaNotRecreatedByUpdate(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 8, TotalNodes: 1})
	s.Register("c", 0)
	if d := s.Submit(req("c", 1, 4, Demand, "alice")); d != Admitted {
		t.Fatalf("alice = %v, want Admitted", d)
	}
	if d := s.Submit(req("c", 9, 12, Demand, "bob")); d != Queued {
		t.Fatalf("bob = %v, want Queued behind the node budget", d)
	}
	s.DropClientQuota("bob")
	quantum := 16
	if _, err := s.Update(Patch{DRRQuantum: &quantum}); err != nil {
		t.Fatal(err)
	}
	if d, ok := s.QuotaDebt("bob"); ok {
		t.Errorf("a live quantum change re-created the dropped client's quota entry (debt %d)", d)
	}
}

// Enabling DRR on a live scheduler backfills quota entries for the
// clients of already-queued jobs, so the backlog is charged and the
// fairness takes effect immediately instead of waiting for the next
// enqueue.
func TestDRRLiveEnableBackfillsQueuedClients(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "x"))
	s.Submit(req("c", 10, 17, Agent, "alice"))
	s.Submit(req("c", 14, 21, Agent, "bob")) // coalesced into alice's job
	s.Submit(req("c", 30, 33, Demand, "carol"))
	quantum := 8
	s.Update(Patch{DRRQuantum: &quantum})
	for _, client := range []string{"alice", "bob", "carol"} {
		if _, ok := s.QuotaDebt(client); !ok {
			t.Errorf("queued client %q missing from the ledger after the live quantum enable", client)
		}
	}
	// The backlog is charged once it drains.
	s.SimDone("c", 1)
	for {
		j, ok := s.Next()
		if !ok {
			break
		}
		s.SimDone(j.Ctx, j.Parallelism)
	}
	// Carol's 4-step demand job was charged: at most quantum−4 credit
	// remains (an uncharged client would sit at the 8-step cap).
	if d, ok := s.QuotaDebt("carol"); !ok || d > 4 {
		t.Errorf("carol's backlog job went uncharged: debt=%d ok=%v", d, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The preempt-free fast path of a fully configured scheduler (budget +
// preemption + quotas) stays allocation-free in steady state: the knobs
// must not tax every miss on the DV hot path.
func TestPreemptFreeFastPathNoAllocs(t *testing.T) {
	s := New(&manualClock{}, Config{
		Coalesce: true, Priorities: true, TotalNodes: 64,
		Preempt: PreemptYoungest, DRRQuantum: 8,
	})
	s.Register("c", 4)
	// Warm the ledgers (context state, quota entries).
	for i := 0; i < 8; i++ {
		if s.Submit(req("c", 1+8*i, 8+8*i, Demand, "cli")) == Admitted {
			s.SimDone("c", 1)
		}
	}
	drain(s)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		first := 1 + (i%97)*8
		i++
		if s.Submit(req("c", first, first+7, Demand, "cli")) == Admitted {
			s.SimDone("c", 1)
		}
		s.WantsPreemption()
		for {
			j, ok := s.Next()
			if !ok {
				break
			}
			s.SimDone(j.Ctx, j.Parallelism)
		}
	})
	if avg != 0 {
		t.Errorf("preempt-free fast path allocates %.1f allocs/op, want 0", avg)
	}
}
