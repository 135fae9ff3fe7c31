package sched

import (
	"testing"
	"time"
)

// manualClock is a settable des.Clock for wait-time assertions.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration { return c.now }

func req(ctx string, first, last int, class Class, client string) Request {
	return Request{Ctx: ctx, First: first, Last: last, Parallelism: 1, Class: class, Client: client}
}

// drain pops every admissible job.
func drain(s *Scheduler) []Job {
	var jobs []Job
	for {
		j, ok := s.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

func TestLegacySemantics(t *testing.T) {
	// Zero config = the paper's rules: demand queues at smax, prefetch is
	// dropped, the queue drains FIFO.
	s := New(&manualClock{}, Config{})
	s.Register("c", 2)
	if d := s.Submit(req("c", 1, 4, Demand, "")); d != Admitted {
		t.Fatalf("first demand = %v, want Admitted", d)
	}
	if d := s.Submit(req("c", 5, 8, Agent, "a")); d != Admitted {
		t.Fatalf("prefetch under capacity = %v, want Admitted", d)
	}
	if d := s.Submit(req("c", 9, 12, Agent, "a")); d != Dropped {
		t.Fatalf("prefetch at capacity = %v, want Dropped", d)
	}
	if d := s.Submit(req("c", 9, 12, Guided, "a")); d != Dropped {
		t.Fatalf("guided prefetch at capacity = %v, want Dropped", d)
	}
	if d := s.Submit(req("c", 9, 12, Demand, "")); d != Queued {
		t.Fatalf("demand at capacity = %v, want Queued", d)
	}
	if d := s.Submit(req("c", 13, 16, Demand, "")); d != Queued {
		t.Fatalf("second demand = %v, want Queued", d)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("queue must not drain while the context is full")
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 9 {
		t.Fatalf("popped %+v, want FIFO head [9,12]", j)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("context is full again after the pop")
	}
	s.SimDone("c", 1)
	j, ok = s.Next()
	if !ok || j.First != 13 {
		t.Fatalf("popped %+v, want [13,16]", j)
	}
	st := s.Stats()
	if st.Dropped != 2 || st.Queued != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLegacyNoCoalescing(t *testing.T) {
	s := New(&manualClock{}, Config{})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 5, 8, Demand, ""))  // adjacent
	s.Submit(req("c", 7, 12, Demand, "")) // overlapping
	if got := s.Stats().QueueDepth; got != 2 {
		t.Fatalf("queue depth = %d, want 2 separate jobs without coalescing", got)
	}
}

func TestCoalesceMergesOverlappingAndAdjacent(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 48, Demand, "")) // fills the context
	s.Submit(req("c", 49, 60, Demand, ""))
	s.Submit(req("c", 57, 72, Demand, ""))  // overlaps the queued job
	s.Submit(req("c", 73, 84, Demand, ""))  // adjacent to it
	s.Submit(req("c", 97, 108, Demand, "")) // disjoint: separate job
	if got := s.Stats().QueueDepth; got != 2 {
		t.Fatalf("queue depth = %d, want 2 (one coalesced + one disjoint)", got)
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 49 || j.Last != 84 {
		t.Fatalf("coalesced job = [%d,%d], want [49,84]", j.First, j.Last)
	}
	if st := s.Stats(); st.Coalesced != 2 {
		t.Errorf("stats.Coalesced = %d, want 2", st.Coalesced)
	}
}

func TestCoalesceCascade(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "")) // fills the context
	s.Submit(req("c", 10, 20, Demand, ""))
	s.Submit(req("c", 30, 40, Demand, ""))
	// Bridges both queued jobs: everything merges into one.
	s.Submit(req("c", 18, 32, Demand, ""))
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth = %d, want 1 after cascade merge", got)
	}
	s.SimDone("c", 1)
	j, _ := s.Next()
	if j.First != 10 || j.Last != 40 {
		t.Fatalf("cascaded job = [%d,%d], want [10,40]", j.First, j.Last)
	}
}

func TestCoalescePromotesClass(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 20, Agent, "a"))
	s.Submit(req("c", 15, 25, Demand, "")) // merges into the prefetch job
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.Class != Demand {
		t.Fatalf("merged job class = %v, want Demand after promotion", j.Class)
	}
	if j.First != 10 || j.Last != 25 {
		t.Errorf("merged range = [%d,%d], want [10,25]", j.First, j.Last)
	}
}

func TestPrioritiesOrderQueue(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	if d := s.Submit(req("c", 10, 14, Agent, "a")); d != Queued {
		t.Fatalf("agent prefetch with priorities = %v, want Queued (not Dropped)", d)
	}
	s.Submit(req("c", 20, 24, Guided, "g"))
	s.Submit(req("c", 30, 34, Demand, ""))
	s.Submit(req("c", 40, 44, Agent, "b"))
	var order []Class
	for range [4]int{} {
		s.SimDone("c", 1)
		j, ok := s.Next()
		if !ok {
			t.Fatal("expected a job")
		}
		order = append(order, j.Class)
	}
	want := []Class{Demand, Guided, Agent, Agent}
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
}

func TestNodeCapacitySerializesAcrossContexts(t *testing.T) {
	s := New(&manualClock{}, Config{TotalNodes: 4})
	s.Register("a", 0)
	s.Register("b", 0)
	r := req("a", 1, 4, Demand, "")
	r.Parallelism = 3
	if d := s.Submit(r); d != Admitted {
		t.Fatalf("first job = %v", d)
	}
	r2 := req("b", 1, 4, Demand, "")
	r2.Parallelism = 3
	if d := s.Submit(r2); d != Queued {
		t.Fatalf("node-blocked job = %v, want Queued", d)
	}
	r3 := req("b", 5, 8, Demand, "")
	r3.Parallelism = 1
	if d := s.Submit(r3); d != Queued {
		t.Fatalf("small job behind blocked head = %v, want Queued", d)
	}
	// No backfilling: the 1-node job must not jump the 3-node head.
	if _, ok := s.Next(); ok {
		t.Fatal("nothing should fit while 3 of 4 nodes are used")
	}
	s.SimDone("a", 3)
	j, ok := s.Next()
	if !ok || j.Ctx != "b" || j.First != 1 {
		t.Fatalf("popped %+v, want the blocked 3-node head", j)
	}
	j2, ok := s.Next()
	if !ok || j2.Parallelism != 1 {
		t.Fatalf("popped %+v, want the 1-node follower", j2)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestNextSkipsFullContextsOnly(t *testing.T) {
	// A context at smax must not block another context's queued work.
	s := New(&manualClock{}, Config{})
	s.Register("a", 1)
	s.Register("b", 1)
	s.Submit(req("a", 1, 4, Demand, ""))
	s.Submit(req("a", 5, 8, Demand, "")) // queued, a full
	s.Submit(req("b", 1, 4, Demand, ""))
	s.Submit(req("b", 5, 8, Demand, "")) // queued, b full
	s.SimDone("b", 1)
	j, ok := s.Next()
	if !ok || j.Ctx != "b" {
		t.Fatalf("popped %+v, want b's job (a is still full)", j)
	}
}

func TestCancelClientRespectsKeep(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 14, Agent, "a"))
	s.Submit(req("c", 20, 24, Agent, "a"))
	s.Submit(req("c", 30, 34, Agent, "other"))
	s.Submit(req("c", 40, 44, Demand, ""))
	removed := s.CancelClient("c", "a", func(first, last int) bool {
		return first == 20 // someone waits for [20,24]
	})
	if len(removed) != 1 || removed[0].First != 10 {
		t.Fatalf("removed = %+v, want only [10,14]", removed)
	}
	if got := s.Stats().QueueDepth; got != 3 {
		t.Errorf("queue depth = %d, want 3 (kept, other's, demand)", got)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
}

func TestReleaseReturnsCapacity(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 14, Agent, "a"))
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok {
		t.Fatal("expected the queued prefetch")
	}
	s.Release(j) // revalidation found it stale
	// The freed slot admits the next submission immediately.
	if d := s.Submit(req("c", 20, 24, Demand, "")); d != Admitted {
		t.Fatalf("submit after release = %v, want Admitted", d)
	}
}

// A context deregistered between a pop and the release must not leave a
// ghost ledger behind: Release keeps the node accounting, ReleaseSlot
// and SimDone become no-ops for the missing context, and a later
// re-registration starts with clean counters.
func TestReleaseAfterContextDropped(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, TotalNodes: 4})
	s.Register("c", 1)
	r := req("c", 1, 4, Demand, "")
	r.Parallelism = 2
	if d := s.Submit(r); d != Admitted {
		t.Fatalf("demand = %v", d)
	}
	s.Submit(req("c", 9, 12, Demand, ""))
	s.SimDone("c", 2)
	j, ok := s.Next()
	if !ok {
		t.Fatal("expected the queued demand job")
	}
	// The context vanishes while the popped job is being revalidated.
	s.DropContext("c")
	s.Release(j)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after release into a dropped ledger: %v", err)
	}
	if _, ok := s.ctxs["c"]; ok {
		t.Fatal("Release re-created the dropped context's ledger")
	}
	// The nodes came back: a fresh registration has the full budget.
	s.Register("c", 1)
	r2 := req("c", 1, 4, Demand, "")
	r2.Parallelism = 4
	if d := s.Submit(r2); d != Admitted {
		t.Fatalf("submit after re-register = %v, want Admitted (all 4 nodes free)", d)
	}
}

// ReleaseSlot against a deregistered context (a pipeline placeholder
// dismantled after its context was dropped) must not plant a ghost
// ledger with inflight −1.
func TestReleaseSlotAfterContextDropped(t *testing.T) {
	s := New(&manualClock{}, Config{})
	s.Register("c", 2)
	if d := s.Submit(req("c", 1, 4, Demand, "")); d != Admitted {
		t.Fatalf("demand = %v", d)
	}
	s.ParkNodes(1) // placeholder parked its nodes
	s.DropContext("c")
	s.ReleaseSlot("c")
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after slot release into a dropped ledger: %v", err)
	}
	if _, ok := s.ctxs["c"]; ok {
		t.Fatal("ReleaseSlot re-created the dropped context's ledger")
	}
	// SimDone takes the same guard: only the node accounting survives.
	s.ClaimNodes(1)
	s.SimDone("c", 1)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after SimDone into a dropped ledger: %v", err)
	}
	if _, ok := s.ctxs["c"]; ok {
		t.Fatal("SimDone re-created the dropped context's ledger")
	}
}

func TestWaitTimesPerClass(t *testing.T) {
	clk := &manualClock{}
	s := New(clk, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 14, Demand, ""))
	s.Submit(req("c", 20, 24, Agent, "a"))
	clk.now = 7 * time.Second
	s.SimDone("c", 1)
	drainOne := func() {
		if _, ok := s.Next(); !ok {
			t.Fatal("expected a job")
		}
		s.SimDone("c", 1)
	}
	drainOne()
	clk.now = 9 * time.Second
	drainOne()
	st := s.Stats()
	if st.DemandWait.Jobs != 1 || st.DemandWait.Wait != 7*time.Second {
		t.Errorf("demand wait = %+v, want 1 job / 7s", st.DemandWait)
	}
	if st.AgentWait.Jobs != 1 || st.AgentWait.Wait != 9*time.Second {
		t.Errorf("agent wait = %+v, want 1 job / 9s", st.AgentWait)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{Demand: "demand", Guided: "guided", Agent: "agent", Class(9): "unknown"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestCheckInvariants(t *testing.T) {
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true, TotalNodes: 8})
	s.Register("a", 2)
	s.Register("b", 2)
	for i := 0; i < 12; i++ {
		ctx := "a"
		if i%2 == 0 {
			ctx = "b"
		}
		s.Submit(req(ctx, 1+4*i, 4+4*i, Class(i%3), "cli"))
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after submit %d: %v", i, err)
		}
	}
	s.SimDone("a", 1)
	s.SimDone("b", 1)
	drain(s)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeBudgetIgnoresSmaxQueuedNeighbours(t *testing.T) {
	// A job queued only by its own context's smax must not make the node
	// budget treat the whole scheduler as backed up: an idle context with
	// free nodes admits immediately, and prefetch there is not dropped.
	s := New(&manualClock{}, Config{TotalNodes: 100})
	s.Register("a", 1)
	s.Register("b", 4)
	s.Submit(req("a", 1, 4, Demand, ""))
	if d := s.Submit(req("a", 9, 12, Demand, "")); d != Queued {
		t.Fatalf("a's second demand = %v, want Queued (smax)", d)
	}
	if d := s.Submit(req("b", 1, 4, Agent, "cli")); d != Admitted {
		t.Fatalf("b's prefetch = %v, want Admitted (99 nodes free, a's queue is smax-blocked)", d)
	}
	if d := s.Submit(req("b", 9, 12, Demand, "")); d != Admitted {
		t.Fatalf("b's demand = %v, want Admitted", d)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelClientSparesCoalescedConstituents(t *testing.T) {
	// Two clients' prefetches merged into one job: withdrawing one client
	// must not discard the other's interest.
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 20, Agent, "alice"))
	s.Submit(req("c", 15, 25, Agent, "bob")) // merges into alice's job
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth = %d, want 1 merged job", got)
	}
	if removed := s.CancelClient("c", "alice", nil); len(removed) != 0 {
		t.Fatalf("alice's withdrawal removed %+v; bob still wants the range", removed)
	}
	if got := s.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth after partial withdrawal = %d, want 1", got)
	}
	removed := s.CancelClient("c", "bob", nil)
	if len(removed) != 1 || removed[0].First != 10 || removed[0].Last != 25 {
		t.Fatalf("bob's withdrawal removed %+v, want the whole merged job", removed)
	}
	if got := s.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth = %d, want 0", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelClientRecomputesClass(t *testing.T) {
	// A guided hint merged with an agent prefetch: when the guided client
	// withdraws, the surviving job must demote to agent class (and drain
	// after demand-class work accordingly).
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 20, Guided, "alice"))
	s.Submit(req("c", 15, 25, Agent, "bob"))
	s.Submit(req("c", 40, 44, Guided, "carol"))
	if removed := s.CancelClient("c", "alice", nil); len(removed) != 0 {
		t.Fatalf("alice's withdrawal removed %+v; bob still wants the range", removed)
	}
	// Pop order must now be carol's guided hint first: the merged job
	// demoted to agent class behind it.
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 40 || j.Class != Guided {
		t.Fatalf("popped %+v, want carol's guided [40,44] first", j)
	}
	s.SimDone("c", 1)
	j, ok = s.Next()
	if !ok || j.Class != Agent || j.Client != "bob" {
		t.Fatalf("popped %+v, want the demoted agent job owned by bob", j)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRaisedMemberRejoinsAtTheEnd(t *testing.T) {
	// A job's identity is the member that reached its class first. A
	// member raised to that class later rejoins the roster behind it, so
	// an unrelated client's withdrawal does not hand the job over.
	s := New(&manualClock{}, Config{Coalesce: true, Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 17, Agent, "alice"))
	s.Submit(req("c", 14, 21, Guided, "bob"))   // guided: bob's job now
	s.Submit(req("c", 18, 25, Guided, "alice")) // alice raised to guided
	s.Submit(req("c", 20, 27, Agent, "carol"))
	if removed := s.CancelClient("c", "carol", nil); len(removed) != 0 {
		t.Fatalf("carol's withdrawal removed %+v", removed)
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 10 || j.Last != 27 || j.Class != Guided || j.Client != "bob" {
		t.Fatalf("popped %+v, want the guided [10,27] job still owned by bob", j)
	}
}
