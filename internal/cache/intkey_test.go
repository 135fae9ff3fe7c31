package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The replay hot path runs the policies over integer output-step keys.
// The schemes are key-agnostic — every decision depends on recency,
// cost and ghost state, never on the key value — so the int-keyed
// instantiation must mirror the string-keyed one operation for operation.
func TestIntKeyedPolicyMirrorsString(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				ps, err := NewPolicy(name, 16)
				if err != nil {
					t.Fatal(err)
				}
				pi, err := NewPolicyOf[int](name, 16)
				if err != nil {
					t.Fatal(err)
				}
				str := func(k int) string { return fmt.Sprintf("f%02d", k) }
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 400; i++ {
					k := rng.Intn(32)
					switch rng.Intn(4) {
					case 0:
						cost := rng.Intn(12) + 1
						ps.Insert(str(k), cost)
						pi.Insert(k, cost)
					case 1:
						ps.Access(str(k))
						pi.Access(k)
					case 2:
						vs, oks := ps.Victim(nil)
						vi, oki := pi.Victim(nil)
						if oks != oki {
							t.Logf("step %d: victim ok mismatch %v vs %v", i, oks, oki)
							return false
						}
						if oks {
							if vs != str(vi) {
								t.Logf("step %d: victim %q vs %d", i, vs, vi)
								return false
							}
							ps.Evict(vs)
							pi.Evict(vi)
						}
					case 3:
						if ps.Contains(str(k)) != pi.Contains(k) {
							t.Logf("step %d: residency mismatch for %d", i, k)
							return false
						}
					}
					if ps.Len() != pi.Len() {
						t.Logf("step %d: Len %d vs %d", i, ps.Len(), pi.Len())
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Reset must return a policy to its freshly constructed behavior: a
// sequence replayed after Reset sees the same victims as on a new policy.
func TestPolicyResetEqualsFresh(t *testing.T) {
	drive := func(p PolicyOf[int], seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var victims []int
		for i := 0; i < 300; i++ {
			k := rng.Intn(24)
			switch rng.Intn(3) {
			case 0:
				p.Insert(k, rng.Intn(8)+1)
			case 1:
				p.Access(k)
			case 2:
				if v, ok := p.Victim(nil); ok {
					p.Evict(v)
					victims = append(victims, v)
				}
			}
		}
		return victims
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			reused, err := NewPolicyOf[int](name, 16)
			if err != nil {
				t.Fatal(err)
			}
			drive(reused, 1) // dirty the state
			reused.Reset()
			if reused.Len() != 0 {
				t.Fatalf("Len after Reset = %d", reused.Len())
			}
			if _, ok := reused.Victim(nil); ok {
				t.Fatal("reset policy proposed a victim")
			}
			fresh, err := NewPolicyOf[int](name, 16)
			if err != nil {
				t.Fatal(err)
			}
			got, want := drive(reused, 2), drive(fresh, 2)
			if len(got) != len(want) {
				t.Fatalf("victim count %d vs fresh %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("victim %d: %d vs fresh %d (Reset leaked state)", i, got[i], want[i])
				}
			}
		})
	}
}

// Cache.Reset must clear residency, byte accounting and stats.
func TestCacheReset(t *testing.T) {
	p, err := NewPolicyOf[int]("DCL", 8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewOf(p, 8)
	for i := 0; i < 12; i++ {
		if _, err := c.Insert(i, 1, i%5+1, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.PinnedBy(func(int) bool { return true })
	if _, err := c.Insert(12, 1, 1, nil); err != nil || c.Stats().PinBlocked != 1 {
		t.Fatalf("insert into an all-pinned cache: err %v, stats %+v", err, c.Stats())
	}
	c.Reset()
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Errorf("after Reset: len=%d used=%d", c.Len(), c.UsedBytes())
	}
	if c.Stats() != (Stats{}) {
		t.Errorf("after Reset: stats=%+v", c.Stats())
	}
	// The cache must be fully usable after Reset.
	if _, err := c.Insert(3, 4, 2, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Touch(3) || c.UsedBytes() != 4 {
		t.Error("cache unusable after Reset")
	}
}

// InsertDiscard must evict exactly like Insert, reporting the count.
func TestInsertDiscardMatchesInsert(t *testing.T) {
	pa, _ := NewPolicyOf[int]("LRU", 8)
	pb, _ := NewPolicyOf[int]("LRU", 8)
	a, b := NewOf(pa, 8), NewOf(pb, 8)
	for i := 0; i < 32; i++ {
		evicted, err := a.Insert(i, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.InsertDiscard(i, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(evicted) {
			t.Fatalf("insert %d: InsertDiscard=%d Insert evicted %v", i, n, evicted)
		}
	}
	if a.Len() != b.Len() || a.UsedBytes() != b.UsedBytes() || a.Stats() != b.Stats() {
		t.Errorf("divergence: a{len=%d used=%d %+v} b{len=%d used=%d %+v}",
			a.Len(), a.UsedBytes(), a.Stats(), b.Len(), b.UsedBytes(), b.Stats())
	}
}
