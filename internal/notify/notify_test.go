package notify

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSubscribeReceivesPublishedEvent(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 7}
	sub := h.Subscribe(top)
	if n := h.Publish(Event{Topic: top, Kind: FileReady}); n != 1 {
		t.Fatalf("Publish delivered to %d subscribers, want 1", n)
	}
	ev, ok := <-sub.C()
	if !ok || ev.Topic != top || ev.Kind != FileReady {
		t.Fatalf("received %+v (ok=%v)", ev, ok)
	}
	// One-shot: the subscription completed and its channel closed.
	if _, ok := <-sub.C(); ok {
		t.Error("channel should be closed after the last topic delivered")
	}
}

func TestPublishWithoutSubscribersIsNoop(t *testing.T) {
	h := NewHub()
	if n := h.Publish(Event{Topic: Topic{Context: "c", Step: 1}}); n != 0 {
		t.Fatalf("delivered %d, want 0", n)
	}
}

func TestOneShotPerTopic(t *testing.T) {
	h := NewHub()
	a := Topic{Context: "c", Step: 1}
	b := Topic{Context: "c", Step: 2}
	sub := h.Subscribe(a, b)
	h.Publish(Event{Topic: a, Kind: FileReady})
	h.Publish(Event{Topic: a, Kind: FileFailed, Err: "again"}) // no subscriber anymore
	if h.Waiting(a) {
		t.Error("topic a should be consumed after first delivery")
	}
	if !h.Waiting(b) {
		t.Error("topic b should still be live")
	}
	h.Publish(Event{Topic: b, Kind: FileFailed, Err: "boom"})
	var got []Event
	for ev := range sub.C() {
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("received %d events, want 2 (one per topic)", len(got))
	}
	if got[0].Topic != a || got[1].Topic != b || got[1].Err != "boom" {
		t.Errorf("events = %+v", got)
	}
	if n := topicCount(h); n != 0 {
		t.Errorf("hub should be empty after completion: %d topics", n)
	}
}

func TestDuplicateTopicsCollapse(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 3}
	sub := h.Subscribe(top, top, top)
	h.Publish(Event{Topic: top, Kind: FileReady})
	n := 0
	for range sub.C() {
		n++
	}
	if n != 1 {
		t.Fatalf("received %d events for a duplicated topic, want 1", n)
	}
}

func TestCloseUnsubscribes(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 1}
	sub := h.Subscribe(top)
	sub.Close()
	sub.Close() // idempotent
	if n := h.Publish(Event{Topic: top, Kind: FileReady}); n != 0 {
		t.Fatalf("closed subscription still reachable (%d deliveries)", n)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("closed subscription's channel should be closed")
	}
	if n := topicCount(h); n != 0 {
		t.Errorf("hub not empty after close: %d topics", n)
	}
}

func TestBufferedEventSurvivesClose(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 9}
	sub := h.Subscribe(top, Topic{Context: "c", Step: 10})
	h.Publish(Event{Topic: top, Kind: FileReady})
	sub.Close()
	ev, ok := <-sub.C()
	if !ok || ev.Topic != top {
		t.Fatalf("buffered event lost on close: %+v (ok=%v)", ev, ok)
	}
}

func TestMultipleSubscribersAllNotified(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 5}
	subs := make([]*Sub, 8)
	for i := range subs {
		subs[i] = h.Subscribe(top)
	}
	if n := h.Publish(Event{Topic: top, Kind: FileReady}); n != len(subs) {
		t.Fatalf("delivered to %d, want %d", n, len(subs))
	}
	for i, sub := range subs {
		if ev, ok := <-sub.C(); !ok || ev.Topic != top {
			t.Errorf("subscriber %d missed the event", i)
		}
	}
}

// TestConcurrentPublishSubscribe hammers the hub from many goroutines;
// run under -race it validates the locking discipline.
func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub()
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				top := Topic{Context: "c", Step: i % 17}
				switch w % 4 {
				case 0:
					h.Publish(Event{Topic: top, Kind: FileReady})
				case 1:
					sub := h.Subscribe(top)
					h.Publish(Event{Topic: top, Kind: FileReady})
					<-sub.C() // delivered by us or a concurrent publisher
					sub.Close()
				case 2:
					woken := make(chan struct{}, 1)
					awaitFunc(h, top, "cb", func(Event) { woken <- struct{}{} })
					h.Deliver(Event{Kind: FileReady}, h.Take(top, nil))
					<-woken // by our Deliver or a concurrent one
					h.Waiting(top)
					h.Waiters("c")
				default:
					sub := h.Subscribe(top, Topic{Context: "d", Step: i})
					sub.Close()
				}
			}
		}()
	}
	wg.Wait()
	if n := topicCount(h); n != 0 {
		t.Errorf("leaked subscribers: %d topics", n)
	}
}

// A topic's stream and plain-owner waiters form one list: Take hands them
// over in registration order, and Deliver runs them in that order.
func TestWaitersInRegistrationOrder(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 4}
	var order []string
	streams := NewStreamOwner(func(tag uint64, ev Event) {
		if ev.Topic != top || ev.Kind != FileFailed || ev.Err != "x" {
			t.Errorf("stream %d got %+v", tag, ev)
		}
		order = append(order, fmt.Sprintf("s%d", tag))
	})
	h.AwaitFor(top, "s1", streams, 1)
	awaitFunc(h, top, "a", func(ev Event) { order = append(order, "a") })
	h.AwaitFor(top, "s2", streams, 2)
	awaitFunc(h, top, "b", func(ev Event) {
		if ev.Topic != top || ev.Kind != FileFailed || ev.Err != "x" {
			t.Errorf("callback got %+v", ev)
		}
		order = append(order, "b")
	})
	if !h.Waiting(top) {
		t.Fatal("Waiting = false with four waiters")
	}
	ws := h.Take(top, nil)
	var clients []string
	for _, w := range ws {
		clients = append(clients, fmt.Sprintf("%s/%v", w.Client, w.StreamOwned()))
	}
	if want := "s1/true a/false s2/true b/false"; strings.Join(clients, " ") != want {
		t.Errorf("taken = %v, want %s", clients, want)
	}
	if h.Waiting(top) {
		t.Error("Waiting = true after Take")
	}
	if n := h.Deliver(Event{Kind: FileFailed, Err: "x"}, ws); n != 4 {
		t.Errorf("Deliver woke %d, want 4", n)
	}
	if strings.Join(order, " ") != "s1 a s2 b" {
		t.Errorf("waiters ran %v, want s1 a s2 b", order)
	}
}

// Withdraw takes exactly one tag's waiters of one owner off the lists it
// is given; what it leaves still counts and still delivers.
func TestWithdraw(t *testing.T) {
	h := NewHub()
	a, b := Topic{Context: "c", Step: 1}, Topic{Context: "c", Step: 2}
	var got []uint64
	o := NewStreamOwner(func(tag uint64, ev Event) { got = append(got, tag) })
	other := NewStreamOwner(func(tag uint64, ev Event) { got = append(got, 100+tag) })
	h.AwaitFor(a, "w", o, 1)
	h.AwaitFor(b, "w", o, 1)
	h.AwaitFor(a, "w", o, 2)
	h.AwaitFor(a, "x", other, 1)
	if n := h.Withdraw(o, 1, a, b, Topic{Context: "nope", Step: 3}); n != 2 {
		t.Errorf("Withdraw removed %d waiters, want 2", n)
	}
	if h.Waiting(b) {
		t.Error("Waiting(b) after its one waiter was withdrawn")
	}
	if n := h.Withdraw(o, 1, a, b); n != 0 {
		t.Errorf("second Withdraw removed %d, want 0", n)
	}
	if n := h.Publish(Event{Topic: a, Kind: FileReady}); n != 2 || fmt.Sprint(got) != "[2 101]" {
		t.Errorf("Publish woke %d %v, want the two waiters left", n, got)
	}
	if n := topicCount(h); n != 0 {
		t.Errorf("hub not empty: %d topics", n)
	}
}

// Deliver reaches exactly the waiters Take detached: one registered
// afterwards waits for the next event.
func TestWaiterAfterTakeMissesDelivery(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 1}
	awaitFunc(h, top, "early", func(Event) {})
	ws := h.Take(top, nil)
	late := 0
	awaitFunc(h, top, "late", func(Event) { late++ })
	sub := h.Subscribe(top)
	h.Deliver(Event{Kind: FileReady}, ws)
	if late != 0 || len(sub.C()) != 0 {
		t.Fatalf("late waiters woken by an earlier Take (callback %d, stream %d)", late, len(sub.C()))
	}
	if n := h.Publish(Event{Topic: top, Kind: FileReady}); n != 2 || late != 1 || len(sub.C()) != 1 {
		t.Errorf("next Publish woke %d (callback %d, stream %d), want both", n, late, len(sub.C()))
	}
}

// A stream closed between Take and Deliver drops its event: no panic, no
// send on the closed channel.
func TestCloseBetweenTakeAndDeliver(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 2}
	sub := h.Subscribe(top)
	ws := h.Take(top, nil)
	sub.Close()
	if n := h.Deliver(Event{Kind: FileReady}, ws); n != 0 {
		t.Errorf("Deliver woke %d, want 0", n)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("closed stream received an event")
	}
	if n := topicCount(h); n != 0 {
		t.Errorf("hub not empty: %d topics", n)
	}
}

// A two-topic stream whose topics were both taken closes only once the
// second taken event has landed, whichever order they are delivered in.
func TestMultiTopicStreamClosesAfterLastDelivery(t *testing.T) {
	h := NewHub()
	a, b := Topic{Context: "c", Step: 1}, Topic{Context: "c", Step: 2}
	sub := h.Subscribe(a, b)
	wa, wb := h.Take(a, nil), h.Take(b, nil)
	h.Deliver(Event{Kind: FileReady}, wb)
	if ev := <-sub.C(); ev.Topic != b {
		t.Fatalf("first event %+v, want topic b", ev)
	}
	select {
	case ev, ok := <-sub.C():
		t.Fatalf("stream after one of two taken events: %+v (ok=%v), want still open and empty", ev, ok)
	default:
	}
	h.Deliver(Event{Kind: FileFailed, Err: "boom"}, wa)
	if ev, ok := <-sub.C(); !ok || ev.Topic != a || ev.Err != "boom" {
		t.Fatalf("second event %+v (ok=%v), want topic a", ev, ok)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("stream still open after both taken events landed")
	}
}

// Waiters walks one context's ledger by step, each step's waiters in
// registration order.
func TestWaitersOfContext(t *testing.T) {
	h := NewHub()
	awaitFunc(h, Topic{Context: "c", Step: 9}, "x", func(Event) {})
	y := NewStreamOwner(func(uint64, Event) {})
	h.AwaitFor(Topic{Context: "c", Step: 3}, "y", y, 1)
	h.AwaitFor(Topic{Context: "d", Step: 1}, "y", y, 1)
	awaitFunc(h, Topic{Context: "c", Step: 9}, "z", func(Event) {})
	awaitFunc(h, Topic{Context: "c", Step: 3}, "w", func(Event) {})
	var got []string
	for _, w := range h.Waiters("c") {
		got = append(got, fmt.Sprintf("%d:%s", w.Topic.Step, w.Client))
	}
	if want := "3:y 3:w 9:x 9:z"; strings.Join(got, " ") != want {
		t.Errorf("Waiters(c) = %v, want %s", got, want)
	}
}

// topicCount returns the number of topics with at least one waiter.
func topicCount(h *Hub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, steps := range h.topics {
		n += len(steps)
	}
	return n
}

// awaitFunc registers fn as client's waiter under a test owner of its
// own.
func awaitFunc(h *Hub, t Topic, client string, fn func(Event)) {
	h.AwaitFor(t, client, NewOwner(func(_ uint64, ev Event) { fn(ev) }), 0)
}
