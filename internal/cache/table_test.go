package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"simfs/internal/model"
)

// The benchmark's cache drill keys the cache by file name through the
// string-keyed Cache adapter. Replaying a drill-shaped sequence — forward
// and backward scans of an analysis's 48 steps from random starts,
// repeated, over a cache of 128 uniform files — the adapter must hit and
// miss where the int-keyed StepCache does on the matching steps, and
// evict the same names in the same order: the schemes never look at a
// key's value.
func TestIntKeyedPolicyMirrorsString(t *testing.T) {
	const timeline, capacity, size = 1152, 128, 6 << 30
	rng := rand.New(rand.NewSource(1))
	var seq []int
	for a := 0; a < 8; a++ {
		start, dir := rng.Intn(timeline-48)+1, 1
		if a < 2 {
			start, dir = start+47, -1
		}
		for i := 0; i < 48; i++ {
			seq = append(seq, start+dir*i)
		}
	}
	name := func(step int) string { return fmt.Sprintf("cosmo_out_%08d.nc", step) }
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			pa, _ := NewPolicy(policy, capacity)
			pb, _ := NewPolicy(policy, capacity)
			byName, bySteps := New(pa, capacity*size), NewStepCache(pb, capacity*size)
			resident := func(step int) bool {
				id, ok := byName.ids[name(step)]
				return ok && byName.steps.Contains(id)
			}
			var evicted []int
			evictions := 0
			for pass := 0; pass < 3; pass++ {
				for i, step := range seq {
					hit := byName.Touch(name(step))
					if hit != bySteps.Touch(step) {
						t.Fatalf("pass %d access %d (step %d): name cache hit %v, step cache %v", pass, i, step, hit, !hit)
					}
					if hit {
						continue
					}
					cost := (step-1)%12 + 1
					n, err := byName.InsertDiscard(name(step), size, cost)
					if err != nil {
						t.Fatal(err)
					}
					if evicted, err = bySteps.Insert(step, size, cost, evicted[:0]); err != nil {
						t.Fatal(err)
					}
					if n != len(evicted) {
						t.Fatalf("pass %d access %d (step %d): name cache evicted %d, step cache %v", pass, i, step, n, evicted)
					}
					for _, v := range evicted {
						if resident(v) {
							t.Fatalf("pass %d access %d: step cache evicted %d, name cache kept %s", pass, i, v, name(v))
						}
					}
					evictions += n
				}
			}
			if evictions == 0 {
				t.Fatal("the sequence evicted nothing")
			}
			for _, step := range bySteps.Keys() {
				if !resident(step) {
					t.Errorf("step %d resident in the step cache, %s not in the name cache", step, name(step))
				}
			}
			if byName.steps.Len() != bySteps.Len() {
				t.Errorf("name cache holds %d files, step cache %d", byName.steps.Len(), bySteps.Len())
			}
		})
	}
}

// A step table's directory spans only the chunks between the lowest and
// highest step written: inserting step 2^28 into an empty cache allocates
// one chunk and a one-slot directory, not a table sized to the step.
func TestCacheStepBound(t *testing.T) {
	for _, policy := range PolicyNames() {
		pol, _ := NewPolicy(policy, 8)
		c := NewStepCache(pol, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Insert(model.MaxSteps, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		dir := reflect.ValueOf(c.nodes).Elem().FieldByName("chunks")
		chunk := uint64(dir.Type().Elem().Elem().Size())
		if grew := after.TotalAlloc - before.TotalAlloc; grew > chunk+chunk/2 {
			t.Errorf("%s: inserting step 2^28 allocated %d bytes, more than its chunk's %d", policy, grew, chunk)
		}
		if n := dir.Len(); n != 1 {
			t.Errorf("%s: directory of %d chunks after one insert, want 1", policy, n)
		}
	}
}

// Reset must return a policy to its freshly constructed behavior: a
// sequence replayed after Reset sees the same victims as on a new policy.
func TestPolicyResetEqualsFresh(t *testing.T) {
	drive := func(p Policy, seed int64) []int {
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
			reused, err := NewPolicy(name, 16)
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
			fresh, err := NewPolicy(name, 16)
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
	p, err := NewPolicy("DCL", 8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStepCache(p, 8)
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
	pa, _ := NewPolicy("LRU", 8)
	pb, _ := NewPolicy("LRU", 8)
	a, b := NewStepCache(pa, 8), NewStepCache(pb, 8)
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
