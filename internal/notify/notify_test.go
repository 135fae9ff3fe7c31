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
	st := h.Stats()
	if st.Published != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOneShotPerTopic(t *testing.T) {
	h := NewHub()
	a := Topic{Context: "c", Step: 1}
	b := Topic{Context: "c", Step: 2}
	sub := h.Subscribe(a, b)
	h.Publish(Event{Topic: a, Kind: FileReady})
	h.Publish(Event{Topic: a, Kind: FileFailed, Err: "again"}) // no subscriber anymore
	if sub.Subscribed(a) {
		t.Error("topic a should be consumed after first delivery")
	}
	if !sub.Subscribed(b) {
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
	if st := h.Stats(); st.Dropped != 0 || st.Subscribers != 0 || st.Topics != 0 {
		t.Errorf("hub should be empty after completion: %+v", st)
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
	if st := h.Stats(); st.Subscribers != 0 || st.Topics != 0 {
		t.Errorf("hub not empty after close: %+v", st)
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
					h.Await(top, "cb", func(Event) { woken <- struct{}{} })
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
	if st := h.Stats(); st.Subscribers != 0 {
		t.Errorf("leaked subscribers: %+v", st)
	}
}

// A topic's streams and callbacks form one list: Take hands them over in
// registration order, and Deliver runs the callbacks in that order.
func TestWaitersInRegistrationOrder(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 4}
	var order []string
	s1 := h.Watch("s1", top)
	h.Await(top, "a", func(ev Event) { order = append(order, "a") })
	s2 := h.Watch("s2", top)
	h.Await(top, "b", func(ev Event) {
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
		clients = append(clients, fmt.Sprintf("%s/%v", w.Client, w.Stream()))
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
	if strings.Join(order, "") != "ab" {
		t.Errorf("callbacks ran %v, want a then b", order)
	}
	for _, s := range []*Sub{s1, s2} {
		if ev, ok := <-s.C(); !ok || ev.Topic != top || ev.Err != "x" {
			t.Errorf("stream got %+v (ok=%v)", ev, ok)
		}
	}
}

// Deliver reaches exactly the waiters Take detached: one registered
// afterwards waits for the next event.
func TestWaiterAfterTakeMissesDelivery(t *testing.T) {
	h := NewHub()
	top := Topic{Context: "c", Step: 1}
	h.Await(top, "early", func(Event) {})
	ws := h.Take(top, nil)
	late := 0
	h.Await(top, "late", func(Event) { late++ })
	sub := h.Watch("late", top)
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
	sub := h.Watch("w", top)
	ws := h.Take(top, nil)
	sub.Close()
	if n := h.Deliver(Event{Kind: FileReady}, ws); n != 0 {
		t.Errorf("Deliver woke %d, want 0", n)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("closed stream received an event")
	}
	if st := h.Stats(); st.Subscribers != 0 || st.Topics != 0 {
		t.Errorf("hub not empty: %+v", st)
	}
}

// A two-topic stream whose topics were both taken closes only once the
// second taken event has landed, whichever order they are delivered in.
func TestMultiTopicStreamClosesAfterLastDelivery(t *testing.T) {
	h := NewHub()
	a, b := Topic{Context: "c", Step: 1}, Topic{Context: "c", Step: 2}
	sub := h.Watch("w", a, b)
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
	h.Await(Topic{Context: "c", Step: 9}, "x", func(Event) {})
	h.Watch("y", Topic{Context: "c", Step: 3}, Topic{Context: "d", Step: 1})
	h.Await(Topic{Context: "c", Step: 9}, "z", func(Event) {})
	h.Await(Topic{Context: "c", Step: 3}, "w", func(Event) {})
	var got []string
	for _, w := range h.Waiters("c") {
		got = append(got, fmt.Sprintf("%d:%s", w.Topic.Step, w.Client))
	}
	if want := "3:y 3:w 9:x 9:z"; strings.Join(got, " ") != want {
		t.Errorf("Waiters(c) = %v, want %s", got, want)
	}
}
