package cache

import (
	"fmt"
	"testing"
)

// SetPolicy swaps the replacement scheme live: the resident set, sizes,
// pins and byte accounting survive; only the ranking is rebuilt.
func TestSetPolicyPreservesResidentSet(t *testing.T) {
	pol, _ := NewPolicyOf[int]("LRU", 8)
	c := NewOf(pol, 8)
	for k := 1; k <= 8; k++ {
		if _, err := c.Insert(k, 1, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Pin(3); err != nil {
		t.Fatal(err)
	}

	newPol, _ := NewPolicyOf[int]("DCL", 8)
	order := []int{1, 2, 3, 4, 5, 6, 7, 8}
	c.SetPolicy(newPol, order, func(k int) int { return k })

	if c.Policy().Name() != "DCL" {
		t.Fatalf("policy after swap = %q", c.Policy().Name())
	}
	if c.Len() != 8 || c.UsedBytes() != 8 {
		t.Fatalf("resident set mangled: len %d used %d", c.Len(), c.UsedBytes())
	}
	for k := 1; k <= 8; k++ {
		if !c.Contains(k) {
			t.Fatalf("key %d lost in the swap", k)
		}
		if !c.policy.Contains(k) {
			t.Fatalf("key %d missing from the rebuilt policy", k)
		}
	}
	if c.PinCount(3) != 1 {
		t.Fatalf("pin lost in the swap: %d", c.PinCount(3))
	}
	// Eviction under the new policy still respects the pin.
	for i := 0; i < 8; i++ {
		if _, err := c.Insert(100+i, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Contains(3) {
		t.Fatal("pinned key evicted after the policy swap")
	}
}

// The rebuild order is the initial recency ranking, so two identical
// swaps behave identically afterwards.
func TestSetPolicyDeterministicOrder(t *testing.T) {
	victims := func() []int {
		pol, _ := NewPolicyOf[int]("LRU", 4)
		c := NewOf(pol, 4)
		for k := 1; k <= 4; k++ {
			c.Insert(k, 1, 1, nil)
		}
		newPol, _ := NewPolicyOf[int]("LRU", 4)
		c.SetPolicy(newPol, []int{2, 4, 1, 3}, func(int) int { return 1 })
		var vs []int
		for k := 10; k < 13; k++ {
			ev, err := c.Insert(k, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, ev...)
		}
		return vs
	}
	a, b := victims(), victims()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same swap, different evictions: %v vs %v", a, b)
	}
	// Order semantics: first of order = coldest. With order {2,4,1,3}
	// the first victims are 2, then 4, then 1.
	if fmt.Sprint(a) != "[2 4 1]" {
		t.Fatalf("victims = %v, want [2 4 1] (order-driven recency)", a)
	}
}

// The node arena makes warmed-up policy churn allocation-free: after one
// full insert/evict/reset cycle, repeating the same cycle allocates
// nothing for any of the five schemes.
func TestPolicyArenaRecyclesNodes(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			pol, err := NewPolicyOf[int](name, 32)
			if err != nil {
				t.Fatal(err)
			}
			c := NewOf(pol, 32)
			cycle := func() {
				// Strided re-insertions force evictions (and, for
				// LIRS/ARC, ghost traffic) well past the capacity.
				// InsertDiscard is the replay hot path — Insert would
				// allocate its evicted-keys slice.
				for i := 0; i < 4; i++ {
					for k := 0; k < 64; k++ {
						if _, err := c.InsertDiscard((k*7+i)%96, 1, k%9); err != nil {
							t.Fatal(err)
						}
						c.Touch((k * 3) % 96)
					}
				}
				c.Reset()
			}
			cycle() // warm the arena and the map storage
			if allocs := testing.AllocsPerRun(5, cycle); allocs > 0 {
				t.Errorf("%s: %v allocs per warmed cycle, want 0", name, allocs)
			}
		})
	}
}
