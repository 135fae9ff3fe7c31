package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func allPolicies(t *testing.T, capacity int) []Policy {
	t.Helper()
	var ps []Policy
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, capacity)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("FIFO", 10); err == nil {
		t.Error("unknown policy should error")
	}
}

// Shared conformance tests: every policy must satisfy the basic Policy
// contract regardless of its internal structure.
func TestPolicyConformance(t *testing.T) {
	for _, p := range allPolicies(t, 8) {
		t.Run(p.Name(), func(t *testing.T) {
			if p.Len() != 0 {
				t.Fatal("fresh policy not empty")
			}
			if _, ok := p.Victim(nil); ok {
				t.Fatal("empty policy proposed a victim")
			}
			p.Access("ghost") // must not panic or create entries
			if p.Len() != 0 || p.Contains("ghost") {
				t.Fatal("Access on absent key created state")
			}

			for i := 0; i < 5; i++ {
				p.Insert(fmt.Sprintf("k%d", i), i+1)
			}
			if p.Len() != 5 {
				t.Fatalf("Len = %d, want 5", p.Len())
			}
			for i := 0; i < 5; i++ {
				if !p.Contains(fmt.Sprintf("k%d", i)) {
					t.Fatalf("k%d not resident", i)
				}
			}

			// Duplicate insert must not duplicate.
			p.Insert("k0", 1)
			if p.Len() != 5 {
				t.Fatalf("duplicate insert changed Len to %d", p.Len())
			}

			// Victim must be resident and unpinned.
			v, ok := p.Victim(func(k string) bool { return k == "k0" || k == "k1" })
			if !ok {
				t.Fatal("no victim with partial pinning")
			}
			if v == "k0" || v == "k1" {
				t.Fatalf("pinned key %q proposed as victim", v)
			}
			if !p.Contains(v) {
				t.Fatalf("victim %q not resident", v)
			}
			p.Evict(v)
			if p.Contains(v) {
				t.Fatalf("evicted key %q still resident", v)
			}
			if p.Len() != 4 {
				t.Fatalf("Len after evict = %d, want 4", p.Len())
			}

			// All pinned → no victim.
			if _, ok := p.Victim(func(string) bool { return true }); ok {
				t.Fatal("victim proposed although everything is pinned")
			}

			// Remove is idempotent.
			p.Remove("k3")
			p.Remove("k3")
			if p.Contains("k3") || p.Len() != 3 {
				t.Fatalf("after Remove: contains=%v len=%d", p.Contains("k3"), p.Len())
			}

			// Drain completely via Victim/Evict.
			for {
				v, ok := p.Victim(nil)
				if !ok {
					break
				}
				p.Evict(v)
			}
			if p.Len() != 0 {
				t.Fatalf("drained policy Len = %d", p.Len())
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	p := newLRU[string]()
	p.Insert("a", 1)
	p.Insert("b", 1)
	p.Insert("c", 1)
	p.Access("a") // order now (MRU) a c b (LRU)
	v, _ := p.Victim(nil)
	if v != "b" {
		t.Errorf("victim = %q, want b", v)
	}
	p.Evict("b")
	v, _ = p.Victim(nil)
	if v != "c" {
		t.Errorf("victim = %q, want c", v)
	}
}

func TestBCLPrefersCheaperOverLRU(t *testing.T) {
	p := newCostLRU[string]("BCL", false)
	p.Insert("expensive", 10) // LRU end
	p.Insert("cheap", 1)
	p.Insert("mid", 5)
	// LRU is "expensive" (cost 10); first cheaper from the LRU end is
	// "cheap" (cost 1).
	v, ok := p.Victim(nil)
	if !ok || v != "cheap" {
		t.Fatalf("victim = %q, want cheap", v)
	}
	// BCL depreciates the spared LRU immediately: 10 - 1 = 9.
	if cost, _ := p.costOf("expensive"); cost != 9 {
		t.Errorf("depreciated cost = %d, want 9", cost)
	}
}

func TestBCLFallsBackToLRU(t *testing.T) {
	p := newCostLRU[string]("BCL", false)
	p.Insert("a", 1) // LRU, cheapest
	p.Insert("b", 5)
	p.Insert("c", 9)
	v, ok := p.Victim(nil)
	if !ok || v != "a" {
		t.Errorf("victim = %q, want LRU fallback a", v)
	}
}

func TestBCLDepreciationConverges(t *testing.T) {
	p := newCostLRU[string]("BCL", false)
	p.Insert("hog", 100)
	p.Insert("w1", 30)
	// Repeated sparing must eventually exhaust the hog's cost so it gets
	// evicted rather than starving cheaper entries forever.
	for i := 0; i < 10; i++ {
		v, ok := p.Victim(nil)
		if !ok {
			t.Fatal("no victim")
		}
		if v == "hog" {
			return // depreciated to the point of eviction: correct
		}
		p.Evict(v)
		p.Insert(fmt.Sprintf("w%d", i+2), 30)
	}
	t.Error("hog never became the victim despite depreciation")
}

func TestDCLDeferredDepreciation(t *testing.T) {
	p := newCostLRU[string]("DCL", true)
	p.Insert("lru", 10)
	p.Insert("cheap", 2)
	// Victim selection spares "lru", evicts "cheap", arming (cheap→lru).
	v, _ := p.Victim(nil)
	if v != "cheap" {
		t.Fatalf("victim = %q, want cheap", v)
	}
	p.Evict("cheap")
	// DCL: no depreciation yet.
	if cost, _ := p.costOf("lru"); cost != 10 {
		t.Fatalf("cost should be undepreciated, got %d", cost)
	}
	// "cheap" misses again before "lru" is re-accessed → depreciate by 2.
	p.Insert("cheap", 2)
	if cost, _ := p.costOf("lru"); cost != 8 {
		t.Errorf("cost after deferred depreciation = %d, want 8", cost)
	}
}

func TestDCLAccessCancelsDepreciation(t *testing.T) {
	p := newCostLRU[string]("DCL", true)
	p.Insert("lru", 10)
	p.Insert("cheap", 2)
	v, _ := p.Victim(nil)
	if v != "cheap" {
		t.Fatalf("victim = %q", v)
	}
	p.Evict("cheap")
	p.Access("lru") // sparing proved right: cancel pending depreciation
	p.Insert("cheap", 2)
	if cost, _ := p.costOf("lru"); cost != 10 {
		t.Errorf("cost = %d, want 10 (depreciation canceled)", cost)
	}
}

func TestLIRSPromotionOnStackHit(t *testing.T) {
	p := newLIRS[string](4) // lCap=3, hCap=1
	p.Insert("a", 1)
	p.Insert("b", 1)
	p.Insert("c", 1) // fills the LIR set
	p.Insert("h", 1) // resident HIR
	// h is in the queue: the first victim.
	v, _ := p.Victim(nil)
	if v != "h" {
		t.Fatalf("victim = %q, want h (resident HIR)", v)
	}
	// Hit on h while on the stack promotes it to LIR, demoting the
	// deepest LIR entry (a).
	p.Access("h")
	v, _ = p.Victim(nil)
	if v != "a" {
		t.Errorf("victim after promotion = %q, want demoted a", v)
	}
}

func TestLIRSGhostPromotion(t *testing.T) {
	p := newLIRS[string](4)
	p.Insert("a", 1)
	p.Insert("b", 1)
	p.Insert("c", 1)
	p.Insert("x", 1) // HIR
	p.Evict("x")     // becomes a ghost on the stack
	if p.Contains("x") {
		t.Fatal("evicted x still resident")
	}
	// Re-inserting a ghost promotes it straight to LIR.
	p.Insert("x", 1)
	if !p.Contains("x") {
		t.Fatal("x not resident after re-insert")
	}
	// The demoted LIR entry (a) is now the eviction candidate.
	v, _ := p.Victim(nil)
	if v != "a" {
		t.Errorf("victim = %q, want a", v)
	}
}

func TestLIRSScanResistance(t *testing.T) {
	// A long scan of one-shot keys must not displace the hot LIR set.
	p := newLIRS[string](10)
	for i := 0; i < 9; i++ {
		p.Insert(fmt.Sprintf("hot%d", i), 1)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("scan%d", i)
		p.Insert(k, 1)
		if v, ok := p.Victim(nil); ok {
			p.Evict(v)
		}
		for j := 0; j < 9; j++ {
			p.Access(fmt.Sprintf("hot%d", j))
		}
	}
	for j := 0; j < 9; j++ {
		if !p.Contains(fmt.Sprintf("hot%d", j)) {
			t.Errorf("hot%d displaced by scan", j)
		}
	}
}

func TestARCAdaptsToFrequency(t *testing.T) {
	p := newARC[string](4)
	p.Insert("f1", 1)
	p.Insert("f2", 1)
	p.Access("f1") // f1,f2 → T2 after re-access
	p.Access("f2")
	p.Insert("r1", 1)
	p.Insert("r2", 1)
	// T1 = {r1,r2}, T2 = {f1,f2}. Victim should come from T1 (p=0).
	v, _ := p.Victim(nil)
	if v != "r1" && v != "r2" {
		t.Errorf("victim = %q, want a T1 entry", v)
	}
	p.Evict(v) // goes to B1
	if p.Contains(v) {
		t.Error("evicted entry still resident")
	}
	// Ghost hit in B1 raises p and resurrects into T2.
	p.Insert(v, 1)
	if !p.Contains(v) {
		t.Error("ghost re-insert did not make entry resident")
	}
	if p.p == 0 {
		t.Error("ghost hit in B1 should raise the adaptation target")
	}
}

func TestARCGhostB2LowersP(t *testing.T) {
	p := newARC[string](4)
	p.Insert("a", 1)
	p.Access("a") // a → T2
	v, _ := p.Victim(nil)
	if v != "a" {
		t.Fatalf("victim = %q, want a", v)
	}
	p.p = 2 // pretend adaptation had favored recency
	p.Evict("a")
	p.Insert("a", 1) // ghost hit in B2
	if p.p != 1 {
		t.Errorf("p after B2 ghost hit = %d, want 1", p.p)
	}
}

func TestCacheInsertAndEvict(t *testing.T) {
	c := New(newLRU[string](), 30)
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(fmt.Sprintf("k%d", i), 10, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.UsedBytes() != 30 || c.Len() != 3 {
		t.Fatalf("used=%d len=%d", c.UsedBytes(), c.Len())
	}
	evicted, err := c.Insert("k3", 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "k0" {
		t.Errorf("evicted = %v, want [k0]", evicted)
	}
	if c.UsedBytes() != 30 {
		t.Errorf("used = %d after eviction", c.UsedBytes())
	}
}

func TestCachePinProtectsFromEviction(t *testing.T) {
	c := New(newLRU[string](), 20)
	c.Insert("a", 10, 1, nil)
	c.Insert("b", 10, 1, nil)
	c.PinnedBy(func(k string) bool { return k == "a" })
	evicted, _ := c.Insert("c", 10, 1, nil)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Errorf("evicted = %v, want [b] (a is pinned)", evicted)
	}
	if !c.Contains("a") {
		t.Error("pinned entry evicted")
	}
}

func TestCacheAllPinnedOverflows(t *testing.T) {
	c := New(newLRU[string](), 20)
	c.Insert("a", 10, 1, nil)
	c.Insert("b", 10, 1, nil)
	c.PinnedBy(func(k string) bool { return k == "a" || k == "b" })
	evicted, err := c.Insert("c", 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Errorf("evicted pinned entries: %v", evicted)
	}
	if c.UsedBytes() != 30 {
		t.Errorf("cache should overflow when all pinned, used=%d", c.UsedBytes())
	}
	if c.Stats().PinBlocked != 1 {
		t.Errorf("PinBlocked = %d, want 1", c.Stats().PinBlocked)
	}
}

// A cache whose owner keeps the reference ledger (PinnedBy): under every
// policy a guarded key is never evicted however cold it ranks, the guard
// is consulted live — the cache copies no count — and an insert
// that finds every resident guarded overflows and is counted.
func TestCacheExternalGuard(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			const capacity = 8
			pol, err := NewPolicyOf[int](name, capacity)
			if err != nil {
				t.Fatal(err)
			}
			refs := map[int]int{}
			c := NewOf(pol, capacity) // 1-byte entries
			c.PinnedBy(func(k int) bool { return refs[k] > 0 })
			for k := 0; k < capacity; k++ {
				c.Insert(k, 1, k%4+1, nil)
			}
			// The three coldest, cheapest-to-lose entries are referenced.
			refs[0], refs[1], refs[4] = 1, 2, 1
			rng := rand.New(rand.NewSource(7))
			for k := capacity; k < 40*capacity; k++ {
				evicted, err := c.Insert(k, 1, rng.Intn(12)+1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range evicted {
					if refs[v] > 0 {
						t.Fatalf("guarded key %d evicted by insert %d", v, k)
					}
				}
				c.Touch(rng.Intn(k + 1))
			}
			if !c.Contains(0) || !c.Contains(1) || !c.Contains(4) {
				t.Fatal("a guarded key is gone")
			}
			if got := c.Stats().PinBlocked; got != 0 || c.UsedBytes() != capacity {
				t.Fatalf("PinBlocked=%d used=%d with five unguarded residents; want 0 and %d", got, c.UsedBytes(), capacity)
			}
			// Asked to make room for a key as large as the whole area, the
			// cache gives up everything but the guarded keys, overflows,
			// and says so.
			const whole = 9999
			if evicted, err := c.Insert(whole, capacity, 1, nil); err != nil || len(evicted) != 5 ||
				c.Len() != 4 || c.Stats().PinBlocked != 1 {
				t.Fatalf("area-sized insert under references: evicted %v, err %v, len %d, PinBlocked %d; want 5 victims, 4, 1",
					evicted, err, c.Len(), c.Stats().PinBlocked)
			}
			c.Remove(whole)
			// Refill with referenced keys: with every resident guarded the
			// next insert overflows and says so.
			for k := 5000; c.Len() < capacity; k++ {
				refs[k] = 1
				c.Insert(k, 1, 1, nil)
			}
			if evicted, err := c.Insert(6000, 1, 1, nil); err != nil || len(evicted) != 0 {
				t.Fatalf("insert into an all-guarded cache: evicted %v, err %v", evicted, err)
			}
			if c.Stats().PinBlocked != 2 || c.UsedBytes() != capacity+1 {
				t.Errorf("PinBlocked %d used %d; want the one blocked insert and an overflow by one",
					c.Stats().PinBlocked, c.UsedBytes())
			}
			// Dropping the references is all it takes to make them victims.
			clear(refs)
			if evicted, err := c.Insert(whole, capacity, 1, nil); err != nil || len(evicted) != capacity+1 ||
				c.Len() != 1 || c.Stats().PinBlocked != 2 {
				t.Errorf("area-sized insert after release: evicted %v, err %v, len %d, PinBlocked %d; want every resident gone, 1, 2",
					evicted, err, c.Len(), c.Stats().PinBlocked)
			}
		})
	}
}

func TestCacheTooLarge(t *testing.T) {
	c := New(newLRU[string](), 10)
	if _, err := c.Insert("huge", 11, 1, nil); err == nil {
		t.Error("oversized insert should fail")
	}
	if _, err := c.Insert("neg", -1, 1, nil); err == nil {
		t.Error("negative size should fail")
	}
}

func TestCacheTouchAndStats(t *testing.T) {
	c := New(newLRU[string](), 100)
	c.Insert("a", 1, 1, nil)
	if !c.Touch("a") {
		t.Error("touch of resident key should hit")
	}
	if c.Touch("b") {
		t.Error("touch of absent key should miss")
	}
	if c.Stats() != (Stats{}) {
		t.Errorf("stats = %+v without an overflow", c.Stats())
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := New(newLRU[string](), 0)
	for i := 0; i < 1000; i++ {
		if ev, _ := c.Insert(fmt.Sprintf("k%d", i), 1<<20, 1, nil); len(ev) != 0 {
			t.Fatalf("unbounded cache evicted %v", ev)
		}
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d", c.Len())
	}
}

// An insert larger than one entry evicts as many entries as it takes to
// fit, appending them to the caller's buffer, and overflows, counted,
// when a pin stops it short.
func TestCacheInsertEvictsToFit(t *testing.T) {
	c := New(newLRU[string](), 30)
	c.Insert("a", 10, 1, nil)
	c.Insert("b", 10, 1, nil)
	c.Insert("c", 10, 1, nil)
	evicted, err := c.Insert("d", 20, 1, []string{"kept"})
	if err != nil || !slices.Equal(evicted, []string{"kept", "a", "b"}) {
		t.Errorf("Insert d: evicted %v, err %v; want [kept a b]", evicted, err)
	}
	c.PinnedBy(func(k string) bool { return k == "c" })
	evicted, err = c.Insert("e", 25, 1, evicted[:0])
	if err != nil || !slices.Equal(evicted, []string{"d"}) {
		t.Errorf("Insert e: evicted %v, err %v; want [d] (c is pinned)", evicted, err)
	}
	if !c.Contains("c") || c.UsedBytes() != 35 || c.Stats().PinBlocked != 1 {
		t.Errorf("pinned c resident %v, used %d, PinBlocked %d; want true, 35, 1",
			c.Contains("c"), c.UsedBytes(), c.Stats().PinBlocked)
	}
}

func TestCacheRemove(t *testing.T) {
	c := New(newLRU[string](), 30)
	c.Insert("a", 10, 1, nil)
	c.Remove("a")
	c.Remove("a") // idempotent
	if c.Contains("a") || c.UsedBytes() != 0 {
		t.Error("remove failed")
	}
}

func TestCacheReinsertRefreshesCost(t *testing.T) {
	p := newCostLRU[string]("DCL", true)
	c := New(p, 100)
	c.Insert("a", 1, 5, nil)
	c.Insert("a", 1, 9, nil)
	if cost, _ := p.costOf("a"); cost != 9 {
		t.Errorf("cost = %d, want refreshed 9", cost)
	}
	if c.Len() != 1 {
		t.Errorf("duplicate insert duplicated entry")
	}
}
