package sched

import "testing"

// Update applies at the admission boundary: queued jobs are re-ordered
// under the new policy and new submissions follow the new rules, while
// in-flight reservations are untouched.
func TestSetConfigReordersQueue(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	if d := s.Submit(req("c", 1, 4, Demand, "")); d != Admitted {
		t.Fatalf("first demand = %v", d)
	}
	// Queue an agent prefetch, then a demand: priority order puts the
	// demand first.
	if d := s.Submit(req("c", 9, 12, Agent, "a")); d != Queued {
		t.Fatalf("agent = %v, want Queued", d)
	}
	if d := s.Submit(req("c", 17, 20, Demand, "")); d != Queued {
		t.Fatalf("demand = %v, want Queued", d)
	}

	// Drop priorities live: the queue reverts to submission order.
	mustUpdate(t, s, Config{})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.First != 9 {
		t.Fatalf("popped %+v, want the agent job [9,12] first in FIFO order", j)
	}
	s.SimDone("c", 1)
	if j, ok := s.Next(); !ok || j.First != 17 {
		t.Fatalf("popped %+v, want the demand job [17,20]", j)
	}

	// And the new admission rule applies to new submissions: prefetch at
	// capacity is dropped again under the zero config.
	if d := s.Submit(req("c", 25, 28, Agent, "a")); d != Dropped {
		t.Fatalf("prefetch at capacity after Update = %v, want Dropped", d)
	}
}

// A newly imposed node budget clamps queued jobs wider than the budget,
// so they stay launchable instead of deadlocking the queue.
func TestSetConfigClampsQueuedParallelism(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	if d := s.Submit(Request{Ctx: "c", First: 1, Last: 4, Parallelism: 1, Class: Demand}); d != Admitted {
		t.Fatalf("demand = %v", d)
	}
	if d := s.Submit(Request{Ctx: "c", First: 9, Last: 12, Parallelism: 8, Class: Demand}); d != Queued {
		t.Fatalf("wide demand = %v, want Queued", d)
	}
	mustUpdate(t, s, Config{Priorities: true, TotalNodes: 4})
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok {
		t.Fatal("clamped job never admitted — a wide queued job deadlocked the budget")
	}
	if j.Parallelism != 4 {
		t.Fatalf("queued job parallelism = %d, want clamped to 4", j.Parallelism)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustUpdate reconfigures s to cfg through a full Patch: every knob set.
func mustUpdate(t *testing.T, s *Scheduler, cfg Config) {
	t.Helper()
	p := Patch{Coalesce: &cfg.Coalesce, Priorities: &cfg.Priorities, TotalNodes: &cfg.TotalNodes, Preempt: &cfg.Preempt, DRRQuantum: &cfg.DRRQuantum}
	if got, err := s.Update(p); err != nil || got != cfg {
		t.Fatalf("Update(%+v) = %+v, %v", cfg, got, err)
	}
}

// DropContext removes a deregistered context's queue and ledger, and
// returns the removed jobs so the core can dismantle pending markers.
func TestDropContext(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Register("d", 1)
	if d := s.Submit(req("c", 1, 4, Demand, "")); d != Admitted {
		t.Fatalf("demand = %v", d)
	}
	s.Submit(req("c", 9, 12, Guided, "g"))
	s.Submit(req("c", 17, 20, Guided, "g"))
	s.Submit(req("d", 1, 4, Demand, "")) // the neighbour is untouched
	s.SimDone("c", 1)

	removed := s.DropContext("c")
	if len(removed) != 2 {
		t.Fatalf("DropContext returned %d jobs, want 2", len(removed))
	}
	if got := s.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth after drop = %d, want 0 (d's job was admitted)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if jobs := s.DropContext("c"); jobs != nil {
		t.Fatalf("second drop returned %v", jobs)
	}
}
