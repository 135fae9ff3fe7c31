// Package locks exercises the lockorder analyzer: shard-mutex
// nesting, plain-mutex ordering, and blocking work under a shard
// lock. ContendedMutex and Hub are matched by type name, so local
// stand-ins behave exactly like the simfs metrics/notify types.
package locks

import "sync"

type ContendedMutex struct{ sync.Mutex }

type Hub struct{}

func (h *Hub) Publish(ev string)              {}
func (h *Hub) Await(topic string)             {}
func (h *Hub) Take(topic string) []string     { return nil }
func (h *Hub) Deliver(ev string, ws []string) {}

type shard struct {
	mu ContendedMutex
	ch chan int
}

type registry struct {
	mu sync.Mutex
}

func NestedFlagged(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "nested shard lock b.mu while holding a.mu"
	b.mu.Unlock()
	a.mu.Unlock()
}

func NestedAllowed(down, up *shard) {
	down.mu.Lock()
	up.mu.Lock() //simfs:allow lockorder downstream-to-upstream pipeline order
	up.mu.Unlock()
	down.mu.Unlock()
}

func SequentialClean(a, b *shard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func PlainThenShardFlagged(r *registry, s *shard) {
	r.mu.Lock()
	s.mu.Lock() // want "shard lock s.mu acquired while a plain mutex is held"
	s.mu.Unlock()
	r.mu.Unlock()
}

// ShardThenPlainClean is the documented order: shard locks first,
// then the registry mutexes.
func ShardThenPlainClean(r *registry, s *shard) {
	s.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	s.mu.Unlock()
}

func SendFlagged(s *shard) {
	s.mu.Lock()
	s.ch <- 1 // want "blocking channel send while shard lock s.mu is held"
	s.mu.Unlock()
}

func SendAfterUnlockClean(s *shard) {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	s.ch <- v
}

// DeferredUnlockHolds: a deferred unlock keeps the lock held to the
// end of the function, so the send is still under the lock.
func DeferredUnlockHolds(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want "blocking channel send while shard lock s.mu is held"
}

func PublishFlagged(h *Hub, s *shard) {
	s.mu.Lock()
	h.Publish("evict") // want "notify hub publish while shard lock s.mu is held"
	s.mu.Unlock()
}

func PublishAfterUnlockClean(h *Hub, s *shard) {
	s.mu.Lock()
	s.mu.Unlock()
	h.Publish("evict")
}

// TakeThenDeliver: registering and taking waiters under the shard lock
// is clean; waking them is not.
func TakeThenDeliver(h *Hub, s *shard) {
	s.mu.Lock()
	h.Await("step")
	ws := h.Take("step")
	h.Deliver("early", ws) // want "notify hub deliver while shard lock s.mu is held"
	s.mu.Unlock()
	h.Deliver("ready", ws)
}

// lockedEntry is entered with s's lock held by the caller, so even
// its first acquisition is a nested one.
//
//simfs:locked s.mu
func lockedEntry(s, t *shard) {
	t.mu.Lock() // want "nested shard lock t.mu while holding caller:s.mu"
	t.mu.Unlock()
}

// GoroutineClean: a spawned goroutine does not run under the
// caller's locks.
func GoroutineClean(h *Hub, s *shard) {
	s.mu.Lock()
	go func() {
		h.Publish("later")
		s.ch <- 1
	}()
	s.mu.Unlock()
}

func SelectDefaultClean(s *shard) {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

func SelectNoDefaultFlagged(s *shard) {
	s.mu.Lock()
	select {
	case s.ch <- 1: // want "potentially blocking select send while shard lock s.mu is held"
	}
	s.mu.Unlock()
}

// CondUnlockClean: both branches release, so the fall-through state
// is unlocked and the send is fine.
func CondUnlockClean(s *shard, c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.ch <- 1
}

// EarlyReturnHolds: the unlocking branch returns, so the code after
// the if still runs under the lock.
func EarlyReturnHolds(s *shard, c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return
	}
	s.ch <- 1 // want "blocking channel send while shard lock s.mu is held"
	s.mu.Unlock()
}
