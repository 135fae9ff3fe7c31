package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// opTrace drives a policy through a random operation sequence while an
// oracle map tracks expected residency. This is the core property test for
// all five schemes: whatever the internal structure (stacks, ghosts,
// adaptation), the residency the policy keeps in the cache's step table
// must match the oracle, victims must always be resident and unpinned,
// and Len must agree.
func runPolicyOracle(p Policy, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	resident := map[int]bool{}
	pinned := map[int]bool{}
	pick := func() int { return rng.Intn(32) }

	for i := 0; i < steps; i++ {
		switch op := rng.Intn(100); {
		case op < 35: // insert
			k := pick()
			p.Insert(k, rng.Intn(12)+1)
			resident[k] = true
		case op < 55: // access
			k := pick()
			p.Access(k)
		case op < 75: // victim + evict
			isPinned := func(k int) bool { return pinned[k] }
			v, ok := p.Victim(isPinned)
			nResidentUnpinned := 0
			for k := range resident {
				if resident[k] && !pinned[k] {
					nResidentUnpinned++
				}
			}
			if !ok {
				if nResidentUnpinned > 0 {
					return fmt.Errorf("step %d: no victim though %d unpinned resident entries exist", i, nResidentUnpinned)
				}
				continue
			}
			if !resident[v] {
				return fmt.Errorf("step %d: victim %d not resident per oracle", i, v)
			}
			if pinned[v] {
				return fmt.Errorf("step %d: victim %d is pinned", i, v)
			}
			if !holds(p, v) {
				return fmt.Errorf("step %d: victim %d not resident per policy", i, v)
			}
			p.Evict(v)
			resident[v] = false
		case op < 95: // toggle pin on a resident key
			k := pick()
			if resident[k] {
				pinned[k] = !pinned[k]
			}
		default: // consistency audit
			n := 0
			for k, r := range resident {
				if r != holds(p, k) {
					return fmt.Errorf("step %d: residency mismatch for %d: oracle=%v policy=%v", i, k, r, holds(p, k))
				}
				if r {
					n++
				}
			}
			if p.Len() != n {
				return fmt.Errorf("step %d: Len=%d oracle=%d", i, p.Len(), n)
			}
		}
	}
	// Final full audit.
	n := 0
	for k, r := range resident {
		if r != holds(p, k) {
			return fmt.Errorf("final residency mismatch for %d", k)
		}
		if r {
			n++
		}
	}
	if p.Len() != n {
		return fmt.Errorf("final Len=%d oracle=%d", p.Len(), n)
	}
	return nil
}

func TestPolicyOracleProperty(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				p, err := NewPolicy(name, 16)
				if err != nil {
					t.Fatal(err)
				}
				if err := runPolicyOracle(p, seed, 500); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: the Cache engine never exceeds capacity unless pins force an
// overflow, never evicts a pinned key, and its byte accounting matches the
// sum of resident sizes.
func TestCacheInvariantsProperty(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p, _ := NewPolicy(name, 16)
				const capBytes = 160
				c := NewStepCache(p, capBytes)
				sizes := map[int]int64{}
				pinCount := map[int]int{}
				c.PinnedBy(func(k int) bool { return pinCount[k] > 0 })

				for i := 0; i < 400; i++ {
					k := rng.Intn(24)
					switch rng.Intn(9) {
					case 0, 1, 2, 3, 4:
						size := int64(rng.Intn(20) + 1)
						wasResident := c.Contains(k)
						evicted, err := c.Insert(k, size, rng.Intn(8)+1, nil)
						if err != nil {
							return false
						}
						for _, e := range evicted {
							if pinCount[e] > 0 {
								t.Logf("pinned key %d evicted", e)
								return false
							}
							delete(sizes, e)
						}
						if !wasResident {
							sizes[k] = size
						}
					case 5, 6:
						c.Touch(k)
					case 7:
						if c.Contains(k) {
							pinCount[k]++
						}
					case 8:
						if pinCount[k] > 0 {
							pinCount[k]--
						}
					}
					var want int64
					for _, s := range sizes {
						want += s
					}
					if c.UsedBytes() != want {
						t.Logf("byte accounting drifted: used=%d want=%d", c.UsedBytes(), want)
						return false
					}
					if c.UsedBytes() > capBytes && c.Stats().PinBlocked == 0 {
						t.Logf("over capacity without pin pressure: %d", c.UsedBytes())
						return false
					}
					if c.Len() != len(sizes) {
						t.Logf("len mismatch: %d vs %d", c.Len(), len(sizes))
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: LIRS never reports more residents than inserted minus evicted,
// and drains cleanly even after heavy ghost churn.
func TestLIRSChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newLIRS(8)
		live := map[int]bool{}
		for i := 0; i < 600; i++ {
			k := rng.Intn(40)
			switch rng.Intn(3) {
			case 0:
				p.Insert(k, 1)
				live[k] = true
			case 1:
				p.Access(k)
			case 2:
				if v, ok := p.Victim(nil); ok {
					p.Evict(v)
					delete(live, v)
				}
			}
			if p.Len() != len(live) {
				return false
			}
		}
		for {
			v, ok := p.Victim(nil)
			if !ok {
				break
			}
			p.Evict(v)
			delete(live, v)
		}
		return p.Len() == 0 && len(live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: ARC's resident size never exceeds inserted entries and its
// adaptation parameter stays within [0, c].
func TestARCBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newARC(8)
		for i := 0; i < 500; i++ {
			k := rng.Intn(30)
			switch rng.Intn(3) {
			case 0:
				p.Insert(k, 1)
			case 1:
				p.Access(k)
			case 2:
				if p.Len() > 8 {
					if v, ok := p.Victim(nil); ok {
						p.Evict(v)
					}
				}
			}
			if p.p < 0 || p.p > p.c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
