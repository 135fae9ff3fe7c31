package cache

import (
	"errors"
	"fmt"
)

// Stats counts cache events.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// PinBlocked counts inserts that exceeded capacity because every
	// eviction candidate was pinned; the cache temporarily overflows in
	// that case, as SimFS must keep files that analyses hold open.
	PinBlocked int64
}

// CacheOf is the byte-accounting eviction engine that SimFS runs over one
// storage area, generic over the key type. It combines a replacement
// policy with file sizes and reference counts (pins): an output step "can
// be evicted only if its reference counter is zero" (paper Sec. III-A).
type CacheOf[K comparable] struct {
	policy   PolicyOf[K]
	maxBytes int64
	used     int64
	sizes    map[K]int64
	pins     map[K]int
	stats    Stats
	// pinnedFn is the eviction guard handed to Policy.Victim: the isPinned
	// method value unless PinnedBy replaced it. Bound once — taking it per
	// Victim call would allocate a closure on every eviction.
	pinnedFn func(K) bool
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
	c := &CacheOf[K]{
		policy:   policy,
		maxBytes: maxBytes,
		sizes:    map[K]int64{},
		pins:     map[K]int{},
	}
	c.pinnedFn = c.isPinned
	return c
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
// key space never hit this). Sizes, pins and byte accounting are
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
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
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
	err := c.admit(key, size, cost, &evicted)
	return evicted, err
}

// InsertDiscard inserts like Insert but reports only the number of
// evictions, for callers (the experiment replay loop) that only count
// evictions and never act on the evicted keys.
func (c *CacheOf[K]) InsertDiscard(key K, size int64, cost int) (evictions int, err error) {
	before := c.stats.Evictions
	if err := c.admit(key, size, cost, nil); err != nil {
		return 0, err
	}
	return int(c.stats.Evictions - before), nil
}

// admit implements Insert; when out is non-nil the evicted keys are
// appended to it.
func (c *CacheOf[K]) admit(key K, size int64, cost int, out *[]K) error {
	if size < 0 {
		return fmt.Errorf("cache: negative size %d for %v", size, key)
	}
	if c.Contains(key) {
		c.policy.Insert(key, cost)
		return nil
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return fmt.Errorf("%w: %v is %d bytes, capacity %d", ErrTooLarge, key, size, c.maxBytes)
	}
	if c.maxBytes > 0 {
		for c.used+size > c.maxBytes {
			victim, ok := c.policy.Victim(c.pinnedFn)
			if !ok {
				c.stats.PinBlocked++
				break
			}
			c.evict(victim)
			if out != nil {
				*out = append(*out, victim)
			}
		}
	}
	c.sizes[key] = size
	c.used += size
	c.policy.Insert(key, cost)
	return nil
}

func (c *CacheOf[K]) evict(key K) {
	c.policy.Evict(key)
	c.used -= c.sizes[key]
	delete(c.sizes, key)
	delete(c.pins, key)
	c.stats.Evictions++
}

// Remove withdraws a key without counting an eviction (external deletion).
func (c *CacheOf[K]) Remove(key K) {
	if _, ok := c.sizes[key]; !ok {
		return
	}
	c.policy.Remove(key)
	c.used -= c.sizes[key]
	delete(c.sizes, key)
	delete(c.pins, key)
}

// Pin increments key's reference counter, protecting it from eviction.
// Pinning a non-resident key is an error.
func (c *CacheOf[K]) Pin(key K) error {
	if !c.Contains(key) {
		return fmt.Errorf("cache: pin of non-resident key %v", key)
	}
	c.pins[key]++
	return nil
}

// Unpin decrements key's reference counter. Unpinning below zero or a
// non-resident key is an error.
func (c *CacheOf[K]) Unpin(key K) error {
	n, ok := c.pins[key]
	if !ok || n <= 0 {
		if !c.Contains(key) {
			return fmt.Errorf("cache: unpin of non-resident key %v", key)
		}
		return fmt.Errorf("cache: unpin of unpinned key %v", key)
	}
	if n == 1 {
		delete(c.pins, key)
	} else {
		c.pins[key] = n - 1
	}
	return nil
}

func (c *CacheOf[K]) isPinned(key K) bool { return c.pins[key] > 0 }

// PinnedBy makes guard the cache's eviction guard: a key for which it
// returns true is never offered as a victim. It replaces the Pin/Unpin
// counters for this cache — an owner that already keeps the reference
// counts (the Virtualizer's shard) hands them over instead of mirroring
// every reference into a second ledger; Pin, Unpin and PinCount then
// have no effect on eviction.
func (c *CacheOf[K]) PinnedBy(guard func(K) bool) { c.pinnedFn = guard }

// PinCount returns key's current reference count.
func (c *CacheOf[K]) PinCount(key K) int { return c.pins[key] }

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

// ResetStats zeroes the event counters.
func (c *CacheOf[K]) ResetStats() { c.stats = Stats{} }

// Reset empties the cache and its policy and zeroes the counters,
// retaining allocated map storage. The replay rep loops reset one cache
// per replay instead of allocating a fresh policy+cache pair.
func (c *CacheOf[K]) Reset() {
	c.policy.Reset()
	clear(c.sizes)
	clear(c.pins)
	c.used = 0
	c.stats = Stats{}
}
