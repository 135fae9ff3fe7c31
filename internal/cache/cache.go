package cache

import (
	"errors"
	"fmt"
)

// Stats counts the one cache event no other layer sees. Hits, misses
// and evictions are counted by the cache's caller (core.CtxStats, the
// experiment replay's ReplayResult), which sees each of them too.
type Stats struct {
	// PinBlocked counts inserts that exceeded capacity because every
	// eviction candidate was pinned; the cache temporarily overflows in
	// that case, as SimFS must keep files that analyses hold open.
	PinBlocked int64
}

// StepCache is the byte-accounting eviction engine that SimFS runs over
// one storage area, keyed by output step. It combines a replacement
// policy with file sizes and an eviction guard: an output step "can be
// evicted only if its reference counter is zero" (paper Sec. III-A), and
// the owner of that counter hands it over through PinnedBy. Residency and
// sizes live in the policy's step table.
type StepCache struct {
	policy   Policy
	nodes    *table // policy.steps()
	maxBytes int64
	used     int64
	stats    Stats
	// pinned is the eviction guard handed to Policy.Victim; nil (the
	// default) pins nothing.
	pinned func(int) bool
}

// NewStepCache creates a cache with the given policy and byte capacity.
// A zero or negative capacity means unbounded (pure on-disk mode).
func NewStepCache(policy Policy, maxBytes int64) *StepCache {
	return &StepCache{policy: policy, nodes: policy.steps(), maxBytes: maxBytes}
}

// ErrTooLarge is returned when a single file exceeds the cache capacity.
var ErrTooLarge = errors.New("cache: file larger than cache capacity")

// Policy returns the underlying replacement policy.
func (c *StepCache) Policy() Policy { return c.policy }

// SetPolicy swaps the replacement policy live, rebuilding the new policy
// from the resident set: every resident key is re-inserted with the cost
// reported by costOf, in the order given by order (first = coldest, last
// = most recently used) so the initial recency ranking is deterministic.
// Keys in order that are not resident are skipped; residents missing
// from order follow in step order. Sizes move to the new policy's table,
// and the guard and byte accounting are untouched — only the replacement
// ranking is rebuilt, so no file moves or eviction happens during the
// swap.
func (c *StepCache) SetPolicy(p Policy, order []int, costOf func(int) int) {
	p.Reset()
	old, nodes := c.nodes, p.steps()
	adopt := func(from *node) {
		if to := nodes.get(from.key); from.resident && (to == nil || !to.resident) {
			p.Insert(from.key, costOf(from.key))
			nodes.get(from.key).size = from.size
		}
	}
	for _, key := range order {
		if nd := old.get(key); nd != nil {
			adopt(nd)
		}
	}
	for nd := range old.all {
		adopt(nd)
	}
	c.policy, c.nodes = p, nodes
}

// Contains reports whether key is resident, without touching recency state.
func (c *StepCache) Contains(key int) bool {
	nd := c.nodes.get(key)
	return nd != nil && nd.resident
}

// Touch records an access. It returns true on a hit (and updates the
// policy's recency state) and false on a miss.
func (c *StepCache) Touch(key int) bool {
	if c.Contains(key) {
		c.policy.Access(key)
		return true
	}
	return false
}

// Insert makes key resident with the given size and miss cost, evicting
// unpinned entries as needed, and returns evicted with the evicted keys
// appended: a caller that hands back the same buffer each time
// (evicted[:0]) allocates nothing per eviction. If key is already
// resident it is touched and its cost refreshed. If capacity cannot be
// reached because all candidates are pinned, the cache overflows and the
// event is counted in Stats.PinBlocked.
func (c *StepCache) Insert(key int, size int64, cost int, evicted []int) ([]int, error) {
	_, err := c.admit(key, size, cost, &evicted)
	return evicted, err
}

// InsertDiscard inserts like Insert but reports only the number of
// evictions, for callers (the experiment replay loop) that only count
// evictions and never act on the evicted keys.
func (c *StepCache) InsertDiscard(key int, size int64, cost int) (evictions int, err error) {
	return c.admit(key, size, cost, nil)
}

// admit implements Insert and returns the number of evictions; when out
// is non-nil the evicted keys are appended to it.
func (c *StepCache) admit(key int, size int64, cost int, out *[]int) (int, error) {
	if size < 0 {
		return 0, fmt.Errorf("cache: negative size %d for %d", size, key)
	}
	if c.Contains(key) {
		c.policy.Insert(key, cost)
		return 0, nil
	}
	if key < 0 || key > maxKey {
		return 0, fmt.Errorf("cache: step %d outside [0, %d]", key, maxKey)
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return 0, fmt.Errorf("%w: %d is %d bytes, capacity %d", ErrTooLarge, key, size, c.maxBytes)
	}
	n := 0
	if c.maxBytes > 0 {
		for c.used+size > c.maxBytes {
			victim, ok := c.policy.Victim(c.pinned)
			if !ok {
				c.stats.PinBlocked++
				break
			}
			c.evict(victim)
			n++
			if out != nil {
				*out = append(*out, victim)
			}
		}
	}
	c.policy.Insert(key, cost)
	c.nodes.get(key).size = size
	c.used += size
	return n, nil
}

func (c *StepCache) evict(key int) {
	c.used -= c.nodes.get(key).size
	c.policy.Evict(key)
}

// PinnedBy makes guard the cache's eviction guard: a key for which it
// returns true is never offered as a victim. The cache keeps no
// reference counts of its own — their owner (the Virtualizer's shard
// step table) hands them over — and a nil guard pins nothing. The guard
// is bound once: taking a method value per Victim call would allocate a
// closure on every eviction.
func (c *StepCache) PinnedBy(guard func(int) bool) { c.pinned = guard }

// UsedBytes returns the current resident volume.
func (c *StepCache) UsedBytes() int64 { return c.used }

// MaxBytes returns the configured capacity (0 = unbounded).
func (c *StepCache) MaxBytes() int64 { return c.maxBytes }

// Len returns the number of resident entries.
func (c *StepCache) Len() int { return c.policy.Len() }

// Keys returns the resident keys in ascending step order.
func (c *StepCache) Keys() []int {
	keys := make([]int, 0, c.Len())
	for nd := range c.nodes.all {
		if nd.resident {
			keys = append(keys, nd.key)
		}
	}
	return keys
}

// Stats returns a copy of the event counters.
func (c *StepCache) Stats() Stats { return c.stats }

// Reset empties the cache and its policy and zeroes the counters,
// retaining the table's chunks and the guard. The replay rep loops reset
// one cache per replay instead of allocating a fresh policy+cache pair.
func (c *StepCache) Reset() {
	c.policy.Reset()
	c.used = 0
	c.stats = Stats{}
}

// Cache is a file-name-keyed view of a StepCache for the benchmark's
// cache drill, which keys by name. Each name gets the next step id on
// its first insert, and ids are never recycled.
type Cache struct {
	steps *StepCache
	ids   map[string]int
}

// New creates a name-keyed cache with the given policy and byte capacity.
func New(policy Policy, maxBytes int64) *Cache {
	return &Cache{steps: NewStepCache(policy, maxBytes), ids: map[string]int{}}
}

// Touch records an access to name, as StepCache.Touch.
func (c *Cache) Touch(name string) bool {
	id, ok := c.ids[name]
	return ok && c.steps.Touch(id)
}

// InsertDiscard inserts name, as StepCache.InsertDiscard.
func (c *Cache) InsertDiscard(name string, size int64, cost int) (int, error) {
	id, ok := c.ids[name]
	if !ok {
		id = len(c.ids)
		c.ids[name] = id
	}
	return c.steps.InsertDiscard(id, size, cost)
}
