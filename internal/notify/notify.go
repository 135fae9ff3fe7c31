// Package notify is the file-readiness notification hub of the Data
// Virtualizer. Subscribers take (context, step) topics; the Virtualizer
// publishes a FileReady or FileFailed event when a re-simulation produces
// or fails to produce the step. Publishing never runs under the
// Virtualizer's shard locks, so a slow subscriber cannot stall the
// simulation event pipeline, and waking waiters never requires scanning
// waiter lists under a global lock (the pub/sub shape of the IPPS
// exemplar).
//
// Two front-ends wait for files, on two paths. The TCP daemon rides this
// hub: its one stream handler (server.watch, for acquire, subscribe and
// fed-watch) subscribes through core.Virtualizer.Watch and pumps events
// to the socket from a goroutine; the federation bridge republishes peer
// daemons' events here, so remote productions resolve the same way. The
// in-process front-end — the experiments harness under the DES — does not:
// core.Virtualizer.WaitFile registers a callback that runs synchronously
// inside the launcher event that resolves the step, so an analysis
// resumes at that virtual instant, deterministically; a channel and a
// goroutine would hand the wake-up to the Go scheduler.
//
// Delivery contract: a subscription receives at most one event per
// subscribed topic — the next outcome for that file — after which the
// topic is automatically unsubscribed. Subscribers that need the next
// outcome again (e.g. after an eviction) subscribe anew. Because of this
// one-shot contract a subscription's channel is buffered with one slot
// per topic, so delivery never blocks and never drops.
//
// The subscribe-then-check idiom avoids lost wakeups: subscribe first,
// then read the file's current state; any event published after the
// subscription is buffered, and any state change before it is visible to
// the read. core.Virtualizer.Watch is that idiom, in the one place it is
// written down.
package notify

import (
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
	Delivered   uint64 // events handed to a subscription channel
	Dropped     uint64 // events lost to a full channel (defensive; see doc)
	Subscribers int    // live subscriptions
	Topics      int    // topics with at least one subscriber
}

// Hub routes published events to subscribers. The zero value is not
// usable; call NewHub.
type Hub struct {
	mu     sync.Mutex
	topics map[Topic]map[*Sub]struct{}

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	subs      int
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{topics: map[Topic]map[*Sub]struct{}{}}
}

// Sub is one subscription. Receive events from C; Close when done.
type Sub struct {
	hub    *Hub
	ch     chan Event
	topics map[Topic]struct{}
	closed bool // guarded by hub.mu
}

// Subscribe registers a subscription for the given topics. The returned
// subscription's channel holds one slot per topic, which (with the
// one-shot delivery contract) guarantees non-blocking delivery.
// Duplicate topics collapse.
func (h *Hub) Subscribe(topics ...Topic) *Sub {
	s := &Sub{hub: h, topics: make(map[Topic]struct{}, len(topics))}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range topics {
		if _, dup := s.topics[t]; dup {
			continue
		}
		s.topics[t] = struct{}{}
		m := h.topics[t]
		if m == nil {
			m = map[*Sub]struct{}{}
			h.topics[t] = m
		}
		m[s] = struct{}{}
	}
	s.ch = make(chan Event, len(s.topics))
	h.subs++
	return s
}

// C returns the subscription's event channel. It is closed by Close and
// when the last subscribed topic has delivered.
func (s *Sub) C() <-chan Event { return s.ch }

// Subscribed reports whether the topic is still awaiting delivery on this
// subscription: false once an event for it was delivered (it is then
// buffered in C) or the subscription was closed.
func (s *Sub) Subscribed(t Topic) bool {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	_, ok := s.topics[t]
	return ok
}

// Close unsubscribes all remaining topics and closes the channel.
// Buffered events remain readable. Close is idempotent.
func (s *Sub) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	s.closeLocked()
}

// closeLocked detaches the subscription. Caller holds hub.mu.
func (s *Sub) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	for t := range s.topics {
		if m := s.hub.topics[t]; m != nil {
			delete(m, s)
			if len(m) == 0 {
				delete(s.hub.topics, t)
			}
		}
	}
	s.hub.subs--
	close(s.ch)
}

// Publish delivers ev to every subscriber of its topic and unsubscribes
// the (topic, subscription) pairs it delivered to (one-shot contract).
// It returns the number of deliveries. Publish never blocks.
func (h *Hub) Publish(ev Event) int {
	h.published.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.topics[ev.Topic]
	if len(m) == 0 {
		return 0
	}
	n := 0
	for s := range m {
		delete(m, s)
		delete(s.topics, ev.Topic)
		select {
		case s.ch <- ev:
			h.delivered.Add(1)
			n++
		default:
			// Unreachable under the one-slot-per-topic sizing; counted
			// rather than trusted.
			h.dropped.Add(1)
		}
		if len(s.topics) == 0 {
			// Last topic delivered: complete the subscription so ranging
			// receivers terminate.
			s.closeLocked()
			// closeLocked re-closed nothing for this topic (already
			// removed) and closed the channel after the buffered event.
		}
	}
	if len(m) == 0 {
		delete(h.topics, ev.Topic)
	}
	return n
}

// Stats returns a snapshot of the hub counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	subs := h.subs
	topics := len(h.topics)
	h.mu.Unlock()
	return Stats{
		Published:   h.published.Load(),
		Delivered:   h.delivered.Load(),
		Dropped:     h.dropped.Load(),
		Subscribers: subs,
		Topics:      topics,
	}
}
