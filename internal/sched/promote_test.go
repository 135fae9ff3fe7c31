package sched

import (
	"reflect"
	"testing"
)

func TestPromoteDemandLiftsQueuedPrefetch(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, "")) // occupies the smax slot
	s.Submit(req("c", 10, 19, Agent, "a"))
	s.Submit(req("c", 30, 39, Guided, "g"))

	if !s.PromoteDemand("c", 35, "joiner") {
		t.Fatal("PromoteDemand(step inside guided job) = false, want true")
	}
	if s.PromoteDemand("c", 50, "joiner") {
		t.Fatal("PromoteDemand(step outside any job) = true, want false")
	}
	if got := s.Stats().Promoted; got != 1 {
		t.Fatalf("Promoted = %d, want 1", got)
	}
	if !s.demandWaiting.Load() {
		t.Fatal("demand-waiting hint not armed by promotion")
	}

	// The promoted job must drain ahead of the agent prefetch.
	s.SimDone("c", 1)
	j, ok := s.Next()
	if !ok || j.Class != Demand || j.First != 30 {
		t.Fatalf("first pop = %+v ok=%v, want the promoted [30,39] at demand class", j, ok)
	}
}

// Demand-join is the missing half of Priorities and nothing else: with
// Priorities off a queued prefetch job (possible only after a live flip
// — the drop rule never queues one) keeps its class and its place.
func TestPromoteDemandRequiresDemandJoin(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 19, Agent, "a"))
	s.Submit(req("c", 30, 33, Demand, "d"))
	mustUpdate(t, s, Config{})
	before := s.QueuedRanges("c")
	if s.PromoteDemand("c", 15, "joiner") {
		t.Fatal("PromoteDemand fired with Priorities off")
	}
	if got := s.Stats().Promoted; got != 0 {
		t.Fatalf("Promoted = %d, want 0", got)
	}
	if after := s.QueuedRanges("c"); !reflect.DeepEqual(before, after) {
		t.Fatalf("queue order changed with Priorities off: %v → %v", before, after)
	}
}

func TestPromoteDemandSkipsDemandJobs(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 19, Demand, "d")) // queued, already demand
	if s.PromoteDemand("c", 15, "joiner") {
		t.Fatal("PromoteDemand lifted a job that is already demand class")
	}
}

func TestPromoteDemandJoinsDRRBilling(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, DRRQuantum: 4})
	s.Register("c", 1)
	s.Submit(req("c", 1, 4, Demand, ""))
	s.Submit(req("c", 10, 19, Agent, "a"))
	if !s.PromoteDemand("c", 12, "joiner") {
		t.Fatal("PromoteDemand = false, want true")
	}
	s.mu.Lock()
	_, enrolled := s.quota["joiner"]
	s.mu.Unlock()
	if !enrolled {
		t.Fatal("promoting client not enrolled in the DRR quota roster")
	}
}

func TestClientLoadsSnapshots(t *testing.T) {
	s := New(&manualClock{}, Config{})
	s.Register("c", 0)
	if s.ClientLoads() != nil {
		t.Fatal("ClientLoads on a fresh scheduler should be nil")
	}
	s.Submit(req("c", 1, 4, Demand, "alice")) // 4 steps
	s.Submit(req("c", 5, 5, Demand, "bob"))   // 1 step
	s.Submit(req("c", 6, 8, Demand, "alice")) // 3 steps
	s.Submit(req("c", 9, 9, Demand, ""))      // anonymous: not billed
	want := map[string]uint64{"alice": 7, "bob": 1}
	if got := s.ClientLoads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ClientLoads = %v, want %v", got, want)
	}
	// The snapshot is a copy: mutating it must not corrupt the ledger.
	s.ClientLoads()["alice"] = 999
	if got := s.ClientLoads()["alice"]; got != 7 {
		t.Fatalf("ledger mutated through snapshot: alice = %d, want 7", got)
	}
}

func TestSetDRRQuantumLeavesOtherFields(t *testing.T) {
	s := New(&manualClock{}, Config{Priorities: true, TotalNodes: 3, Coalesce: true})
	quantum := 8
	cfg, err := s.Update(Patch{DRRQuantum: &quantum})
	if err != nil || cfg.DRRQuantum != 8 || !cfg.Priorities || cfg.TotalNodes != 3 || !cfg.Coalesce {
		t.Fatalf("single-field patch clobbered config: %+v, %v", cfg, err)
	}
}

// Only speculative work is ever a preemption victim.
func TestVictimEligible(t *testing.T) {
	for cls, want := range map[Class]bool{Agent: true, Guided: false, Demand: false} {
		if got := VictimEligible(cls); got != want {
			t.Errorf("VictimEligible(%v) = %v, want %v", cls, got, want)
		}
	}
}
