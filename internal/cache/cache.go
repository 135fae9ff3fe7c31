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

// CacheOf is the byte-accounting eviction engine that SimFS runs over one
// storage area, generic over the key type. It combines a replacement
// policy with file sizes and an eviction guard: an output step "can be
// evicted only if its reference counter is zero" (paper Sec. III-A), and
// the owner of that counter hands it over through PinnedBy.
type CacheOf[K comparable] struct {
	policy   PolicyOf[K]
	maxBytes int64
	used     int64
	sizes    map[K]int64
	stats    Stats
	// pinned is the eviction guard handed to Policy.Victim; nil (the
	// default) pins nothing.
	pinned func(K) bool
}

// Cache is the string-keyed engine. The Virtualizer keys its caches by
// output step (CacheOf[int]); the alias is left for the benchmark drills
// and tests, which key by file name.
type Cache = CacheOf[string]

// New creates a string-keyed cache with the given policy and byte
// capacity. A zero or negative capacity means unbounded (pure on-disk
// mode).
func New(policy Policy, maxBytes int64) *Cache { return NewOf(policy, maxBytes) }

// NewOf creates a cache over any comparable key type. The experiment
// replay paths use integer output-step keys to keep file-name formatting
// off the per-access hot path.
func NewOf[K comparable](policy PolicyOf[K], maxBytes int64) *CacheOf[K] {
	return &CacheOf[K]{policy: policy, maxBytes: maxBytes, sizes: map[K]int64{}}
}

// ErrTooLarge is returned when a single file exceeds the cache capacity.
var ErrTooLarge = errors.New("cache: file larger than cache capacity")

// Policy returns the underlying replacement policy.
func (c *CacheOf[K]) Policy() PolicyOf[K] { return c.policy }

// SetPolicy swaps the replacement policy live, rebuilding the new policy
// from the resident set: every resident key is re-inserted with the cost
// reported by costOf, in the order given by order (first = coldest, last
// = most recently used) so the initial recency ranking is deterministic.
// Keys in order that are not resident are skipped; residents missing
// from order are appended in map order (callers that enumerate the whole
// key space never hit this). Sizes, the guard and byte accounting are
// untouched — only the replacement ranking is rebuilt, so no file moves
// or eviction happens during the swap.
func (c *CacheOf[K]) SetPolicy(p PolicyOf[K], order []K, costOf func(K) int) {
	p.Reset()
	seen := make(map[K]bool, len(c.sizes))
	for _, key := range order {
		if _, resident := c.sizes[key]; !resident || seen[key] {
			continue
		}
		seen[key] = true
		p.Insert(key, costOf(key))
	}
	// The replay path (core.SetCachePolicy) passes every resident key in
	// order, so this fallback only runs for keys the caller omitted; their
	// relative recency was unspecified to begin with.
	for key := range c.sizes { //simfs:allow maporder fallback for keys missing from order; callers that care pass a complete order
		if !seen[key] {
			p.Insert(key, costOf(key))
		}
	}
	c.policy = p
}

// Contains reports whether key is resident, without touching recency state.
func (c *CacheOf[K]) Contains(key K) bool {
	_, ok := c.sizes[key]
	return ok
}

// Touch records an access. It returns true on a hit (and updates the
// policy's recency state) and false on a miss.
func (c *CacheOf[K]) Touch(key K) bool {
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
func (c *CacheOf[K]) Insert(key K, size int64, cost int, evicted []K) ([]K, error) {
	_, err := c.admit(key, size, cost, &evicted)
	return evicted, err
}

// InsertDiscard inserts like Insert but reports only the number of
// evictions, for callers (the experiment replay loop) that only count
// evictions and never act on the evicted keys.
func (c *CacheOf[K]) InsertDiscard(key K, size int64, cost int) (evictions int, err error) {
	return c.admit(key, size, cost, nil)
}

// admit implements Insert and returns the number of evictions; when out
// is non-nil the evicted keys are appended to it.
func (c *CacheOf[K]) admit(key K, size int64, cost int, out *[]K) (int, error) {
	if size < 0 {
		return 0, fmt.Errorf("cache: negative size %d for %v", size, key)
	}
	if c.Contains(key) {
		c.policy.Insert(key, cost)
		return 0, nil
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return 0, fmt.Errorf("%w: %v is %d bytes, capacity %d", ErrTooLarge, key, size, c.maxBytes)
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
	c.sizes[key] = size
	c.used += size
	c.policy.Insert(key, cost)
	return n, nil
}

func (c *CacheOf[K]) evict(key K) {
	c.policy.Evict(key)
	c.used -= c.sizes[key]
	delete(c.sizes, key)
}

// Remove withdraws a key without counting an eviction (external deletion).
func (c *CacheOf[K]) Remove(key K) {
	if _, ok := c.sizes[key]; !ok {
		return
	}
	c.policy.Remove(key)
	c.used -= c.sizes[key]
	delete(c.sizes, key)
}

// PinnedBy makes guard the cache's eviction guard: a key for which it
// returns true is never offered as a victim. The cache keeps no
// reference counts of its own — their owner (the Virtualizer's shard
// step table) hands them over — and a nil guard pins nothing. The guard
// is bound once: taking a method value per Victim call would allocate a
// closure on every eviction.
func (c *CacheOf[K]) PinnedBy(guard func(K) bool) { c.pinned = guard }

// UsedBytes returns the current resident volume.
func (c *CacheOf[K]) UsedBytes() int64 { return c.used }

// MaxBytes returns the configured capacity (0 = unbounded).
func (c *CacheOf[K]) MaxBytes() int64 { return c.maxBytes }

// Len returns the number of resident entries.
func (c *CacheOf[K]) Len() int { return len(c.sizes) }

// Keys returns the resident keys in unspecified order. K is not
// ordered, so callers that need determinism sort the result themselves
// (core.SetCachePolicy sorts by step before replaying accesses).
func (c *CacheOf[K]) Keys() []K {
	keys := make([]K, 0, len(c.sizes))
	for k := range c.sizes { //simfs:allow maporder documented unspecified order; K is not ordered so callers sort
		keys = append(keys, k)
	}
	return keys
}

// Stats returns a copy of the event counters.
func (c *CacheOf[K]) Stats() Stats { return c.stats }

// Reset empties the cache and its policy and zeroes the counters,
// retaining allocated map storage and the guard. The replay rep loops
// reset one cache per replay instead of allocating a fresh policy+cache
// pair.
func (c *CacheOf[K]) Reset() {
	c.policy.Reset()
	clear(c.sizes)
	c.used = 0
	c.stats = Stats{}
}
