package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if !e.Run(0) {
		t.Fatal("run did not drain")
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run(0)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(10, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should succeed")
	}
	if tm.Stop() {
		t.Error("second Stop should fail")
	}
	e.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
	if e.processed != 0 {
		t.Errorf("processed = %d", e.processed)
	}
}

func TestStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(1, func() {})
	e.Run(0)
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestNegativeDelayAndPastTime(t *testing.T) {
	e := NewEngine()
	var negative, past time.Duration
	e.Schedule(10, func() {
		e.Schedule(-5, func() { negative = e.Now() })
		e.At(3, func() { past = e.Now() })
	})
	e.Run(0)
	if negative != 10 || past != 10 {
		t.Errorf("negative delay fired at %v, past At at %v; want both at 10", negative, past)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 || e.Now() != 12 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	if len(e.heap) != 2 {
		t.Errorf("pending = %d", len(e.heap))
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	var boom func()
	boom = func() { e.Schedule(1, boom) } // infinite chain
	e.Schedule(1, boom)
	if e.Run(100) {
		t.Error("bounded run of infinite chain should not drain")
	}
	if e.processed != 100 {
		t.Errorf("processed = %d", e.processed)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, and the clock never goes backwards.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []time.Duration
		n := 200
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000))
			d := delays[i]
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		if !e.Run(0) {
			return false
		}
		if len(fired) != n {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return e.Now() == fired[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStopReapsImmediately(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, e.Schedule(time.Duration(1000+i), func() {}))
	}
	e.Schedule(1, func() {})
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop of pending timer failed")
		}
	}
	// Stopped timers must leave the queue at Stop time, not at their
	// deadline: long virtual runs cancel many prefetch timers and the
	// queue must not grow with them.
	if len(e.heap) != 1 {
		t.Fatalf("Pending = %d after stopping 100 timers, want 1", len(e.heap))
	}
	if !e.Run(0) {
		t.Fatal("run did not drain")
	}
	if e.processed != 1 {
		t.Errorf("processed = %d, want 1", e.processed)
	}
}

func TestStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	t1 := e.Schedule(10, func() {})
	if !t1.Stop() {
		t.Fatal("Stop failed")
	}
	// t2 recycles t1's slab slot; the stale handle must stay inert.
	fired := false
	var firedAt time.Duration
	e.Schedule(20, func() { fired, firedAt = true, e.Now() })
	if t1.Stop() {
		t.Error("stale handle stopped a recycled slot")
	}
	e.Run(0)
	if !fired {
		t.Error("t2 did not fire")
	}
	if firedAt != 20 {
		t.Errorf("t2 fired at %v, want 20", firedAt)
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop reported true")
	}
}

// Property: with a random subset of timers stopped at random points, the
// surviving events fire exactly once, in nondecreasing (time, seq) order.
func TestRandomStopProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 300
		fired := map[int]bool{}
		var order []time.Duration
		timers := make([]Timer, n)
		delays := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			delays[i] = time.Duration(rng.Intn(50))
			timers[i] = e.Schedule(delays[i], func() {
				if fired[i] {
					t.Fatalf("event %d fired twice", i)
				}
				fired[i] = true
				order = append(order, e.Now())
			})
		}
		stopped := map[int]bool{}
		for i := 0; i < n/3; i++ {
			j := rng.Intn(n)
			if timers[j].Stop() {
				stopped[j] = true
			}
		}
		if !e.Run(0) {
			return false
		}
		for i := 0; i < n; i++ {
			if fired[i] == stopped[i] {
				return false
			}
		}
		return sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The engine must not allocate per event once the slab reaches steady
// state (the headline property of the slab + free-list design). Each
// measured run schedules and drains a fresh event chain, so the loop
// body actually exercises Schedule/Step; AllocsPerRun's warm-up call
// grows the slab once, and the free list must absorb every later run.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < 1000 {
			e.Schedule(time.Microsecond, reschedule)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		n = 0
		e.Schedule(0, reschedule)
		for e.Step() {
		}
	})
	if e.processed < 6000 {
		t.Fatalf("measured runs fired only %d events in total", e.processed)
	}
	if allocs > 0 {
		t.Errorf("steady-state event loop allocates %.1f allocs/run, want 0", allocs)
	}
}

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Errorf("wall clock did not advance: %v then %v", a, b)
	}
}
