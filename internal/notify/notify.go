// Package notify is the Data Virtualizer's one record of who waits for a
// file — a (context, step) topic — and the one mechanism that wakes them
// when a re-simulation produces the step or fails to (the pub/sub shape
// of the IPPS exemplar).
//
// A topic's waiters form one list in registration order, each carrying
// its client. A stream (Watch, Subscribe) receives on a channel: the TCP
// daemon's readiness streams pump it to a socket, and the federation
// bridge publishes peer daemons' events into the hub. A callback (Await)
// runs in the goroutine that delivers: a missed open's notice
// (core.Virtualizer.OpenAwait), core.Virtualizer.WaitFile and pipeline
// upstream inputs use it, so under the DES an analysis resumes at the
// virtual instant its file appears, deterministically. A tagged callback
// (AwaitFor) belongs to an Owner that can leave first; its waiters stop
// counting once it has.
//
// Delivery is two steps. Take detaches a topic's waiters and sends
// nothing; the Virtualizer calls it under the shard lock that decides the
// step's fate, so the event reaches exactly the waiters registered before
// that decision. Deliver runs after the unlock: it sends to the streams
// under the hub lock, then runs the callbacks in order with no lock held
// (a callback may re-enter the Virtualizer). Publish is Take then
// Deliver. The hub lock is innermost: everything but Deliver and Publish
// may be called under a shard lock.
//
// A waiter receives at most one event per topic — the next outcome for
// that file — and is then gone from it. A stream's channel has one slot
// per topic, so delivery never blocks; a stream closed between Take and
// Deliver drops the event, and a multi-topic stream's channel closes once
// its last taken event is delivered. Registering before reading the
// file's state (core.Virtualizer.Watch and WaitFile do both under one
// hold of the shard lock) loses no wakeup.
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

// Stats counts hub activity.
type Stats struct {
	Published   uint64 // Publish calls
	Delivered   uint64 // events handed to a waiter
	Dropped     uint64 // events lost to a full channel (defensive; see doc)
	Subscribers int    // live streams
	Topics      int    // topics with at least one waiter
}

// Waiter is one entry of a topic's list: a stream or a callback, and the
// client that waits.
type Waiter struct {
	Topic  Topic
	Client string
	sub    *Sub
	cb     func(Event)
	// owner and tag are a tagged callback's (AwaitFor).
	owner *Owner
	tag   uint64
}

// left reports whether the waiter's owner has left.
func (w Waiter) left() bool { return w.owner != nil && w.owner.left.Load() }

// Owner receives the events of the callback waiters registered under it
// (AwaitFor), each with the tag it was registered with: a daemon
// session, whose missed opens wait under their request IDs. One callback
// bound per owner, not a closure per waiter, keeps a registration free
// of allocations. An owner may leave before its events come (a client
// disconnecting): from then on its waiters no longer count for Waiting —
// they keep no re-simulation alive — and their events are dropped. They
// stay on their topics' lists until the events take them.
type Owner struct {
	notify func(tag uint64, ev Event)
	left   atomic.Bool
}

// NewOwner returns an owner whose waiters' events go to notify.
func NewOwner(notify func(tag uint64, ev Event)) *Owner { return &Owner{notify: notify} }

// Leave retires the owner's waiters.
func (o *Owner) Leave() { o.left.Store(true) }

// Stream reports whether the waiter is a stream rather than a callback.
func (w Waiter) Stream() bool { return w.sub != nil }

// Hub is the waiter ledger. The zero value is not usable; call NewHub.
type Hub struct {
	mu sync.Mutex
	// topics holds each context's waiters by step, in registration order;
	// a step map outlives its last waiter, so Take deletes one int key.
	topics map[string]map[int][]Waiter

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	subs      int
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{topics: map[string]map[int][]Waiter{}}
}

// add appends w to its topic's list. Caller holds h.mu.
func (h *Hub) add(w Waiter) {
	steps := h.topics[w.Topic.Context]
	if steps == nil {
		steps = map[int][]Waiter{}
		h.topics[w.Topic.Context] = steps
	}
	steps[w.Topic.Step] = append(steps[w.Topic.Step], w)
}

// Sub is one stream. Receive events from C; Close when done.
type Sub struct {
	hub    *Hub
	ch     chan Event
	topics map[Topic]struct{} // registered and not yet taken; guarded by hub.mu
	taken  int                // events taken and not yet delivered; guarded by hub.mu
	closed bool               // guarded by hub.mu
}

// Watch registers a stream of client's for the given topics. Its channel
// holds one slot per topic, which (with the one-event-per-topic contract)
// guarantees non-blocking delivery. Duplicate topics collapse.
func (h *Hub) Watch(client string, topics ...Topic) *Sub {
	s := &Sub{hub: h, topics: make(map[Topic]struct{}, len(topics))}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range topics {
		if _, dup := s.topics[t]; dup {
			continue
		}
		s.topics[t] = struct{}{}
		h.add(Waiter{Topic: t, Client: client, sub: s})
	}
	s.ch = make(chan Event, len(s.topics))
	h.subs++
	return s
}

// Subscribe is Watch for a stream no client owns.
func (h *Hub) Subscribe(topics ...Topic) *Sub { return h.Watch("", topics...) }

// Await registers cb as client's waiter for the topic. It runs once, in
// the goroutine that delivers the topic's next event.
func (h *Hub) Await(t Topic, client string, cb func(Event)) {
	h.mu.Lock()
	h.add(Waiter{Topic: t, Client: client, cb: cb})
	h.mu.Unlock()
}

// AwaitFor is Await for a tagged callback: o's callback runs once with
// tag, unless o has left by then.
func (h *Hub) AwaitFor(t Topic, client string, o *Owner, tag uint64) {
	h.mu.Lock()
	h.add(Waiter{Topic: t, Client: client, owner: o, tag: tag})
	h.mu.Unlock()
}

// C returns the stream's event channel. It is closed by Close and once
// every subscribed topic has delivered.
func (s *Sub) C() <-chan Event { return s.ch }

// Subscribed reports whether the topic still awaits its event on this
// stream: false once the event was taken (it is then buffered in C or on
// its way there) or the stream was closed.
func (s *Sub) Subscribed(t Topic) bool {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	_, ok := s.topics[t]
	return ok
}

// Close unregisters all remaining topics and closes the channel.
// Buffered events remain readable; taken ones not yet delivered are
// dropped. Close is idempotent.
func (s *Sub) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.closeLocked()
}

// closeLocked detaches the stream. Caller holds hub.mu.
func (s *Sub) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	h := s.hub
	for t := range s.topics { //simfs:allow maporder each topic's list loses this stream's one entry; the lists are independent
		steps := h.topics[t.Context]
		if list := slices.DeleteFunc(steps[t.Step], func(w Waiter) bool { return w.sub == s }); len(list) > 0 {
			steps[t.Step] = list
		} else {
			delete(steps, t.Step)
		}
	}
	clear(s.topics)
	h.subs--
	close(s.ch)
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
	for _, w := range list {
		if w.sub != nil {
			delete(w.sub.topics, t)
			w.sub.taken++
		}
	}
	if ws == nil {
		return list // the common single-topic take copies nothing
	}
	return append(ws, list...)
}

// Deliver wakes taken waiters with ev, each under its own topic: the
// streams first, under the hub lock, then the callbacks in order with no
// lock held. It returns the number of waiters woken.
func (h *Hub) Deliver(ev Event, ws []Waiter) int {
	if len(ws) == 0 {
		return 0
	}
	n := 0
	h.mu.Lock()
	for _, w := range ws {
		s := w.sub
		if s == nil {
			continue
		}
		s.taken--
		if s.closed {
			continue
		}
		ev.Topic = w.Topic
		select {
		case s.ch <- ev:
			n++
		default:
			// Unreachable under the one-slot-per-topic sizing; counted
			// rather than trusted.
			h.dropped.Add(1)
		}
		if len(s.topics) == 0 && s.taken == 0 {
			// Last topic delivered: complete the stream so ranging
			// receivers terminate.
			s.closeLocked()
		}
	}
	h.mu.Unlock()
	for _, w := range ws {
		switch {
		case w.cb != nil:
			ev.Topic = w.Topic
			w.cb(ev)
			n++
		case w.owner != nil && !w.left():
			ev.Topic = w.Topic
			w.owner.notify(w.tag, ev)
			n++
		}
	}
	h.delivered.Add(uint64(n))
	return n
}

// Publish delivers ev to every waiter of its topic and returns the number
// woken. It must not be called under a shard lock.
func (h *Hub) Publish(ev Event) int {
	h.published.Add(1)
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

// Stats returns a snapshot of the hub counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	subs, topics := h.subs, 0
	for _, steps := range h.topics {
		topics += len(steps)
	}
	h.mu.Unlock()
	return Stats{
		Published:   h.published.Load(),
		Delivered:   h.delivered.Load(),
		Dropped:     h.dropped.Load(),
		Subscribers: subs,
		Topics:      topics,
	}
}
