// Package notify is the Data Virtualizer's one record of who waits for a
// file — a (context, step) topic — and the one mechanism that wakes them
// when a re-simulation produces the step or fails to (the pub/sub shape
// of the IPPS exemplar).
//
// A topic's waiters form one list in registration order, each carrying
// its client, and every waiter is a tagged callback (AwaitFor) run by the
// goroutine that delivers: its Owner's function, called with its tag. A
// daemon session's missed opens wait under their request IDs
// (core.Virtualizer.OpenAwait), its readiness streams file by file under
// theirs (core.Virtualizer.Watch), and a pipeline shard's parked
// simulations under their placeholder IDs; under the DES an analysis
// resumes at the virtual instant its file appears. Withdraw takes a tag's
// waiters off again. An owner can leave first; its waiters stop counting.
// Only a stream owner's waiters (NewStreamOwner) may stand on a step
// nothing promises yet.
//
// Delivery is two steps. Take detaches a topic's waiters and sends
// nothing; the Virtualizer calls it under the shard lock that decides the
// step's fate, so the event reaches exactly the waiters registered before
// that decision. Deliver runs the callbacks after the unlock, in order,
// with no lock held (a callback may re-enter the Virtualizer). Publish is
// Take then Deliver. The hub lock is innermost: everything but Deliver
// and Publish may be called under a shard lock.
//
// A waiter receives at most one event — the next outcome for its file —
// and is then gone from the topic. Registering in the shard-lock hold
// that reads the file's state (core.Virtualizer.Watch and OpenAwait do)
// loses no wakeup.
package notify

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Topic identifies one virtualized file: a simulation context and the
// 1-based output step index.
type Topic struct {
	Context string
	Step    int
}

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// FileReady: the step's file is on disk.
	FileReady Kind = iota
	// FileFailed: the re-simulation that promised the step died.
	FileFailed
)

func (k Kind) String() string {
	switch k {
	case FileReady:
		return "ready"
	case FileFailed:
		return "failed"
	}
	return "unknown"
}

// Event is one published notification.
type Event struct {
	Topic Topic
	Kind  Kind
	// Err carries the failure reason for FileFailed events.
	Err string
	// Attempts and RetryAfter detail a FileFailed event from a
	// quarantined interval: consecutive launch failures and the time
	// until the circuit breaker half-opens (zero outside quarantine).
	Attempts   int
	RetryAfter int64 // nanoseconds
}

// Waiter is one entry of a topic's list: the owner and tag its event goes
// to, and the client that waits.
type Waiter struct {
	Topic  Topic
	Client string
	owner  *Owner
	tag    uint64
}

// left reports whether the waiter's owner has left.
func (w Waiter) left() bool { return w.owner.left.Load() }

// StreamOwned reports whether the waiter was registered under a stream
// owner (NewStreamOwner).
func (w Waiter) StreamOwned() bool { return w.owner.stream }

// Owner receives the events of the callback waiters registered under it
// (AwaitFor), each with the tag it was registered with. One callback
// bound per owner, not a closure per waiter, keeps a registration free
// of allocations. An owner may leave before its events come (a client
// disconnecting): from then on its waiters no longer count for Waiting —
// they keep no re-simulation alive — and their events are dropped. They
// stay on their topics' lists until the events take them.
type Owner struct {
	notify func(tag uint64, ev Event)
	left   atomic.Bool
	// stream marks a readiness stream's owner, fixed at construction.
	stream bool
}

// NewOwner returns an owner whose waiters' events go to notify. Its
// waiters wait on promised steps only (a missed open's notice).
func NewOwner(notify func(tag uint64, ev Event)) *Owner { return &Owner{notify: notify} }

// NewStreamOwner is NewOwner for readiness streams, whose waiters may
// also stand on a step nothing promises: a subscribe registers its
// waiters before it reads whether their steps are promised, and
// withdraws those that are not.
func NewStreamOwner(notify func(tag uint64, ev Event)) *Owner {
	return &Owner{notify: notify, stream: true}
}

// Leave retires the owner's waiters.
func (o *Owner) Leave() { o.left.Store(true) }

// Hub is the waiter ledger. The zero value is not usable; call NewHub.
type Hub struct {
	mu sync.Mutex
	// topics holds each context's waiters by step, in registration order;
	// a step map outlives its last waiter, so Take deletes one int key.
	topics map[string]map[int][]Waiter
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{topics: map[string]map[int][]Waiter{}}
}

// AwaitFor registers client's waiter for the topic: o's callback runs
// once with tag, in the goroutine that delivers the topic's next event,
// unless o has left by then.
func (h *Hub) AwaitFor(t Topic, client string, o *Owner, tag uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	steps := h.topics[t.Context]
	if steps == nil {
		steps = map[int][]Waiter{}
		h.topics[t.Context] = steps
	}
	steps[t.Step] = append(steps[t.Step], Waiter{Topic: t, Client: client, owner: o, tag: tag})
}

// Withdraw takes o's waiters registered under tag off the topics' lists
// and returns how many it removed. A waiter already taken is not on a
// list any more: its event is on its way to o.
func (h *Hub) Withdraw(o *Owner, tag uint64, topics ...Topic) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, t := range topics {
		steps := h.topics[t.Context]
		list := steps[t.Step]
		kept := slices.DeleteFunc(list, func(w Waiter) bool { return w.owner == o && w.tag == tag })
		n += len(list) - len(kept)
		if len(kept) > 0 {
			steps[t.Step] = kept
		} else {
			delete(steps, t.Step)
		}
	}
	return n
}

// Take detaches the topic's waiters, in registration order, appending
// them to ws. Nothing is sent: the caller hands the result to Deliver
// once it holds no shard lock.
func (h *Hub) Take(t Topic, ws []Waiter) []Waiter {
	h.mu.Lock()
	defer h.mu.Unlock()
	steps := h.topics[t.Context]
	list := steps[t.Step]
	if len(list) == 0 {
		return ws
	}
	delete(steps, t.Step)
	if ws == nil {
		return list // the common single-topic take copies nothing
	}
	return append(ws, list...)
}

// Deliver wakes taken waiters with ev, each under its own topic, in
// order and with no lock held. It returns the number of waiters woken.
func (h *Hub) Deliver(ev Event, ws []Waiter) int {
	n := 0
	for _, w := range ws {
		if !w.left() {
			ev.Topic = w.Topic
			w.owner.notify(w.tag, ev)
			n++
		}
	}
	return n
}

// Publish delivers ev to every waiter of its topic and returns the number
// woken. It must not be called under a shard lock.
func (h *Hub) Publish(ev Event) int {
	return h.Deliver(ev, h.Take(ev.Topic, nil))
}

// Waiting reports whether anyone waits for the topic; the waiters of an
// owner that has left do not count.
func (h *Hub) Waiting(t Topic) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, w := range h.topics[t.Context][t.Step] {
		if !w.left() {
			return true
		}
	}
	return false
}

// Waiters lists the waiters of a context's topics by step, each step's in
// registration order.
func (h *Hub) Waiters(ctx string) []Waiter {
	h.mu.Lock()
	defer h.mu.Unlock()
	steps := h.topics[ctx]
	var ws []Waiter
	for _, step := range slices.Sorted(maps.Keys(steps)) {
		ws = append(ws, steps[step]...)
	}
	return ws
}

// Sub is a channel stream over one stream owner: a waiter per distinct
// topic, whose events land in a channel with a slot for each. Nothing in
// the daemon uses it; it serves the benchmark drills and tests.
type Sub struct {
	hub    *Hub
	owner  *Owner
	topics []Topic
	ch     chan Event
	mu     sync.Mutex
	owed   int // events still to come; ch is closed at 0
}

// Subscribe registers a stream no client owns for the topics; duplicate
// topics collapse. Delivery never blocks, and the channel closes once
// every topic has delivered.
func (h *Hub) Subscribe(topics ...Topic) *Sub {
	s := &Sub{hub: h}
	for _, t := range topics {
		if !slices.Contains(s.topics, t) {
			s.topics = append(s.topics, t)
		}
	}
	s.ch = make(chan Event, len(s.topics))
	s.owed = len(s.topics)
	s.owner = NewStreamOwner(s.deliver)
	for _, t := range s.topics {
		h.AwaitFor(t, "", s.owner, 0)
	}
	return s
}

func (s *Sub) deliver(_ uint64, ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owed > 0 {
		s.ch <- ev
		if s.owed--; s.owed == 0 {
			close(s.ch)
		}
	}
}

// C returns the stream's event channel.
func (s *Sub) C() <-chan Event { return s.ch }

// Close withdraws the topics still registered and closes the channel.
// Buffered events remain readable; one taken and not yet delivered is
// dropped. Close is idempotent.
func (s *Sub) Close() {
	s.owner.Leave()
	s.hub.Withdraw(s.owner, 0, s.topics...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owed > 0 {
		s.owed = 0
		close(s.ch)
	}
}
