package cache

import (
	"math/rand"
	"slices"
	"testing"

	"simfs/internal/model"
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

// holds reads key's residency from p's step table, the cache's table.
func holds(p Policy, key int) bool {
	nd := p.steps().Get(key)
	return nd != nil && nd.resident
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("FIFO", 10); err == nil {
		t.Error("unknown policy should error")
	}
}

// Shared conformance tests: every policy must satisfy the basic Policy
// contract regardless of its internal structure.
func TestPolicyConformance(t *testing.T) {
	const ghost = 99
	for _, p := range allPolicies(t, 8) {
		t.Run(p.Name(), func(t *testing.T) {
			if p.Len() != 0 {
				t.Fatal("fresh policy not empty")
			}
			if _, ok := p.Victim(nil); ok {
				t.Fatal("empty policy proposed a victim")
			}
			p.Access(ghost) // must not panic or create entries
			if p.Len() != 0 || holds(p, ghost) {
				t.Fatal("Access on absent key created state")
			}

			for i := 0; i < 5; i++ {
				p.Insert(i, i+1)
			}
			if p.Len() != 5 {
				t.Fatalf("Len = %d, want 5", p.Len())
			}
			for i := 0; i < 5; i++ {
				if !holds(p, i) {
					t.Fatalf("k%d not resident", i)
				}
			}

			// Duplicate insert must not duplicate.
			p.Insert(0, 1)
			if p.Len() != 5 {
				t.Fatalf("duplicate insert changed Len to %d", p.Len())
			}

			// Victim must be resident and unpinned.
			v, ok := p.Victim(func(k int) bool { return k == 0 || k == 1 })
			if !ok {
				t.Fatal("no victim with partial pinning")
			}
			if v == 0 || v == 1 {
				t.Fatalf("pinned key %d proposed as victim", v)
			}
			if !holds(p, v) {
				t.Fatalf("victim %d not resident", v)
			}
			p.Evict(v)
			if holds(p, v) {
				t.Fatalf("evicted key %d still resident", v)
			}
			if p.Len() != 4 {
				t.Fatalf("Len after evict = %d, want 4", p.Len())
			}

			// All pinned → no victim.
			if _, ok := p.Victim(func(int) bool { return true }); ok {
				t.Fatal("victim proposed although everything is pinned")
			}

			// Evict is idempotent.
			p.Evict(3)
			p.Evict(3)
			if holds(p, 3) || p.Len() != 3 {
				t.Fatalf("after Evict: contains=%v len=%d", holds(p, 3), p.Len())
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
	const a, b, c = 1, 2, 3
	p := newLRU()
	p.Insert(a, 1)
	p.Insert(b, 1)
	p.Insert(c, 1)
	p.Access(a) // order now (MRU) a c b (LRU)
	v, _ := p.Victim(nil)
	if v != b {
		t.Errorf("victim = %d, want b", v)
	}
	p.Evict(b)
	v, _ = p.Victim(nil)
	if v != c {
		t.Errorf("victim = %d, want c", v)
	}
}

func TestBCLPrefersCheaperOverLRU(t *testing.T) {
	const expensive, cheap, mid = 1, 2, 3
	p := newCostLRU("BCL", false)
	p.Insert(expensive, 10) // LRU end
	p.Insert(cheap, 1)
	p.Insert(mid, 5)
	// LRU is expensive (cost 10); first cheaper from the LRU end is
	// cheap (cost 1).
	v, ok := p.Victim(nil)
	if !ok || v != cheap {
		t.Fatalf("victim = %d, want cheap", v)
	}
	// BCL depreciates the spared LRU immediately: 10 - 1 = 9.
	if cost, _ := p.costOf(expensive); cost != 9 {
		t.Errorf("depreciated cost = %d, want 9", cost)
	}
}

func TestBCLFallsBackToLRU(t *testing.T) {
	const a, b, c = 1, 2, 3
	p := newCostLRU("BCL", false)
	p.Insert(a, 1) // LRU, cheapest
	p.Insert(b, 5)
	p.Insert(c, 9)
	v, ok := p.Victim(nil)
	if !ok || v != a {
		t.Errorf("victim = %d, want LRU fallback a", v)
	}
}

func TestBCLDepreciationConverges(t *testing.T) {
	const hog = 0
	p := newCostLRU("BCL", false)
	p.Insert(hog, 100)
	p.Insert(1, 30)
	// Repeated sparing must eventually exhaust the hog's cost so it gets
	// evicted rather than starving cheaper entries forever.
	for i := 0; i < 10; i++ {
		v, ok := p.Victim(nil)
		if !ok {
			t.Fatal("no victim")
		}
		if v == hog {
			return // depreciated to the point of eviction: correct
		}
		p.Evict(v)
		p.Insert(i+2, 30)
	}
	t.Error("hog never became the victim despite depreciation")
}

func TestDCLDeferredDepreciation(t *testing.T) {
	const lru, cheap = 1, 2
	p := newCostLRU("DCL", true)
	p.Insert(lru, 10)
	p.Insert(cheap, 2)
	// Victim selection spares lru, evicts cheap, arming (cheap→lru).
	v, _ := p.Victim(nil)
	if v != cheap {
		t.Fatalf("victim = %d, want cheap", v)
	}
	p.Evict(cheap)
	// DCL: no depreciation yet.
	if cost, _ := p.costOf(lru); cost != 10 {
		t.Fatalf("cost should be undepreciated, got %d", cost)
	}
	// cheap misses again before lru is re-accessed → depreciate by 2.
	p.Insert(cheap, 2)
	if cost, _ := p.costOf(lru); cost != 8 {
		t.Errorf("cost after deferred depreciation = %d, want 8", cost)
	}
}

func TestDCLAccessCancelsDepreciation(t *testing.T) {
	const lru, cheap = 1, 2
	p := newCostLRU("DCL", true)
	p.Insert(lru, 10)
	p.Insert(cheap, 2)
	v, _ := p.Victim(nil)
	if v != cheap {
		t.Fatalf("victim = %d", v)
	}
	p.Evict(cheap)
	p.Access(lru) // sparing proved right: cancel pending depreciation
	p.Insert(cheap, 2)
	if cost, _ := p.costOf(lru); cost != 10 {
		t.Errorf("cost = %d, want 10 (depreciation canceled)", cost)
	}
}

func TestLIRSPromotionOnStackHit(t *testing.T) {
	const a, b, c, h = 1, 2, 3, 4
	p := newLIRS(4) // lCap=3, hCap=1
	p.Insert(a, 1)
	p.Insert(b, 1)
	p.Insert(c, 1) // fills the LIR set
	p.Insert(h, 1) // resident HIR
	// h is in the queue: the first victim.
	v, _ := p.Victim(nil)
	if v != h {
		t.Fatalf("victim = %d, want h (resident HIR)", v)
	}
	// Hit on h while on the stack promotes it to LIR, demoting the
	// deepest LIR entry (a).
	p.Access(h)
	v, _ = p.Victim(nil)
	if v != a {
		t.Errorf("victim after promotion = %d, want demoted a", v)
	}
}

func TestLIRSGhostPromotion(t *testing.T) {
	const a, b, c, x = 1, 2, 3, 4
	p := newLIRS(4)
	p.Insert(a, 1)
	p.Insert(b, 1)
	p.Insert(c, 1)
	p.Insert(x, 1) // HIR
	p.Evict(x)     // becomes a ghost on the stack
	if holds(p, x) {
		t.Fatal("evicted x still resident")
	}
	// Re-inserting a ghost promotes it straight to LIR.
	p.Insert(x, 1)
	if !holds(p, x) {
		t.Fatal("x not resident after re-insert")
	}
	// The demoted LIR entry (a) is now the eviction candidate.
	v, _ := p.Victim(nil)
	if v != a {
		t.Errorf("victim = %d, want a", v)
	}
}

func TestLIRSScanResistance(t *testing.T) {
	// A long scan of one-shot keys must not displace the hot LIR set
	// (keys 0-8; the scan runs over 100 onwards).
	p := newLIRS(10)
	for i := 0; i < 9; i++ {
		p.Insert(i, 1)
	}
	for i := 0; i < 100; i++ {
		p.Insert(100+i, 1)
		if v, ok := p.Victim(nil); ok {
			p.Evict(v)
		}
		for j := 0; j < 9; j++ {
			p.Access(j)
		}
	}
	for j := 0; j < 9; j++ {
		if !holds(p, j) {
			t.Errorf("hot%d displaced by scan", j)
		}
	}
}

func TestARCAdaptsToFrequency(t *testing.T) {
	const f1, f2, r1, r2 = 1, 2, 3, 4
	p := newARC(4)
	p.Insert(f1, 1)
	p.Insert(f2, 1)
	p.Access(f1) // f1,f2 → T2 after re-access
	p.Access(f2)
	p.Insert(r1, 1)
	p.Insert(r2, 1)
	// T1 = {r1,r2}, T2 = {f1,f2}. Victim should come from T1 (p=0).
	v, _ := p.Victim(nil)
	if v != r1 && v != r2 {
		t.Errorf("victim = %d, want a T1 entry", v)
	}
	p.Evict(v) // goes to B1
	if holds(p, v) {
		t.Error("evicted entry still resident")
	}
	// Ghost hit in B1 raises p and resurrects into T2.
	p.Insert(v, 1)
	if !holds(p, v) {
		t.Error("ghost re-insert did not make entry resident")
	}
	if p.p == 0 {
		t.Error("ghost hit in B1 should raise the adaptation target")
	}
}

func TestARCGhostB2LowersP(t *testing.T) {
	const a = 1
	p := newARC(4)
	p.Insert(a, 1)
	p.Access(a) // a → T2
	v, _ := p.Victim(nil)
	if v != a {
		t.Fatalf("victim = %d, want a", v)
	}
	p.p = 2 // pretend adaptation had favored recency
	p.Evict(a)
	p.Insert(a, 1) // ghost hit in B2
	if p.p != 1 {
		t.Errorf("p after B2 ghost hit = %d, want 1", p.p)
	}
}

func TestCacheInsertAndEvict(t *testing.T) {
	c := NewStepCache(newLRU(), 30)
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(i, 10, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.UsedBytes() != 30 || c.Len() != 3 {
		t.Fatalf("used=%d len=%d", c.UsedBytes(), c.Len())
	}
	evicted, err := c.Insert(3, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Errorf("evicted = %v, want [0]", evicted)
	}
	if c.UsedBytes() != 30 {
		t.Errorf("used = %d after eviction", c.UsedBytes())
	}
}

func TestCachePinProtectsFromEviction(t *testing.T) {
	const a, b, c3 = 1, 2, 3
	c := NewStepCache(newLRU(), 20)
	c.Insert(a, 10, 1, nil)
	c.Insert(b, 10, 1, nil)
	c.PinnedBy(func(k int) bool { return k == a })
	evicted, _ := c.Insert(c3, 10, 1, nil)
	if len(evicted) != 1 || evicted[0] != b {
		t.Errorf("evicted = %v, want [b] (a is pinned)", evicted)
	}
	if !c.Contains(a) {
		t.Error("pinned entry evicted")
	}
}

func TestCacheAllPinnedOverflows(t *testing.T) {
	const a, b, c3 = 1, 2, 3
	c := NewStepCache(newLRU(), 20)
	c.Insert(a, 10, 1, nil)
	c.Insert(b, 10, 1, nil)
	c.PinnedBy(func(k int) bool { return k == a || k == b })
	evicted, err := c.Insert(c3, 10, 1, nil)
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
			pol, err := NewPolicy(name, capacity)
			if err != nil {
				t.Fatal(err)
			}
			refs := map[int]int{}
			c := NewStepCache(pol, capacity) // 1-byte entries
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
			// Refill with referenced keys (the first evicts the area-sized
			// one): with every resident guarded the next insert overflows
			// and says so.
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
	c := NewStepCache(newLRU(), 10)
	if _, err := c.Insert(1, 11, 1, nil); err == nil {
		t.Error("oversized insert should fail")
	}
	if _, err := c.Insert(2, -1, 1, nil); err == nil {
		t.Error("negative size should fail")
	}
	for _, key := range []int{-1, model.MaxSteps + 1} {
		if _, err := c.Insert(key, 1, 1, nil); err == nil {
			t.Errorf("insert of step %d, off the table, should fail", key)
		}
	}
}

func TestCacheTouchAndStats(t *testing.T) {
	c := NewStepCache(newLRU(), 100)
	c.Insert(1, 1, 1, nil)
	if !c.Touch(1) {
		t.Error("touch of resident key should hit")
	}
	if c.Touch(2) {
		t.Error("touch of absent key should miss")
	}
	if c.Stats() != (Stats{}) {
		t.Errorf("stats = %+v without an overflow", c.Stats())
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewStepCache(newLRU(), 0)
	for i := 0; i < 1000; i++ {
		if ev, _ := c.Insert(i, 1<<20, 1, nil); len(ev) != 0 {
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
	const a, b, c3, d, e, kept = 1, 2, 3, 4, 5, 99
	c := NewStepCache(newLRU(), 30)
	c.Insert(a, 10, 1, nil)
	c.Insert(b, 10, 1, nil)
	c.Insert(c3, 10, 1, nil)
	evicted, err := c.Insert(d, 20, 1, []int{kept})
	if err != nil || !slices.Equal(evicted, []int{kept, a, b}) {
		t.Errorf("Insert d: evicted %v, err %v; want [kept a b]", evicted, err)
	}
	c.PinnedBy(func(k int) bool { return k == c3 })
	evicted, err = c.Insert(e, 25, 1, evicted[:0])
	if err != nil || !slices.Equal(evicted, []int{d}) {
		t.Errorf("Insert e: evicted %v, err %v; want [d] (c is pinned)", evicted, err)
	}
	if !c.Contains(c3) || c.UsedBytes() != 35 || c.Stats().PinBlocked != 1 {
		t.Errorf("pinned c resident %v, used %d, PinBlocked %d; want true, 35, 1",
			c.Contains(c3), c.UsedBytes(), c.Stats().PinBlocked)
	}
}

func TestCacheReinsertRefreshesCost(t *testing.T) {
	p := newCostLRU("DCL", true)
	c := NewStepCache(p, 100)
	c.Insert(1, 1, 5, nil)
	c.Insert(1, 1, 9, nil)
	if cost, _ := p.costOf(1); cost != 9 {
		t.Errorf("cost = %d, want refreshed 9", cost)
	}
	if c.Len() != 1 {
		t.Errorf("duplicate insert duplicated entry")
	}
}
