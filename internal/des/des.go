// Package des is a discrete-event simulation engine: a virtual clock and
// an event heap. The paper's experiments ran for hours of wall-clock on
// Piz Daint; the reproduction runs them in virtual time, which makes every
// benchmark fast and bit-for-bit deterministic while preserving all
// latency relationships (αsim, τsim, τcli) the paper's formulas are built
// on. The DV core is time-source agnostic: it reads time through the Clock
// interface, which either this engine or the wall clock implements.
//
// The scheduler stores events in a slab indexed by small integers and
// orders them with an inlined 4-ary min-heap over slab indices. Freed
// slots are recycled through a free list, so steady-state scheduling does
// not allocate: a self-rescheduling event loop (the shape of every DES
// experiment) runs at ~0 allocs/event. Timer handles are values carrying a
// generation counter, so a handle to a fired or stopped event is inert.
package des

import (
	"time"
)

// Clock provides the current time as an offset from an arbitrary epoch.
type Clock interface {
	Now() time.Duration
}

// WallClock is a Clock backed by real time.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a Clock whose zero is now. WallClock is the one
// sanctioned bridge from real time into the clock interface: everything
// downstream takes a des.Clock and stays replayable by swapping it.
//
//simfs:allow wallclock WallClock is the sanctioned real-time Clock implementation
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now implements Clock.
//
//simfs:allow wallclock WallClock is the sanctioned real-time Clock implementation
func (w *WallClock) Now() time.Duration { return time.Since(w.epoch) }

// Timer is a cancellable handle to a scheduled event. It is a small value
// (no per-event heap allocation); the zero Timer is inert.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer if it has not fired, removing it from the event
// queue immediately. It reports whether the call prevented the event from
// firing.
func (t Timer) Stop() bool {
	if t.e == nil {
		return false
	}
	return t.e.stop(t.slot, t.gen)
}

// slot holds one scheduled event in the engine's slab. gen invalidates
// Timer handles once the slot is recycled; heapIdx is the slot's current
// position in the heap (-1 when not queued).
type slot struct {
	at      time.Duration
	seq     uint64
	fn      func()
	gen     uint32
	heapIdx int32
}

// Engine is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order (stable FIFO tie-break),
// which keeps experiments deterministic.
type Engine struct {
	now time.Duration
	seq uint64
	// processed counts fired events, for introspection and runaway
	// detection in tests.
	processed uint64

	slab []slot
	free []int32 // recycled slab indices
	heap []int32 // 4-ary min-heap of slab indices, ordered by (at, seq)
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now implements Clock.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule enqueues fn to run after delay. Negative delays run "now" (at
// the current virtual time, after already-queued events for that time).
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At enqueues fn to run at absolute virtual time t. Times in the past are
// clamped to now.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(e.slab, slot{})
		idx = int32(len(e.slab) - 1)
	}
	s := &e.slab[idx]
	s.at, s.seq, s.fn = t, e.seq, fn
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Timer{e: e, slot: idx, gen: s.gen}
}

// Step fires the next event. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	idx := e.removeAt(0)
	s := &e.slab[idx]
	e.now = s.at
	e.processed++
	fn := s.fn
	e.release(idx)
	fn()
	return true
}

// Run fires events until none remain. maxEvents bounds runaway loops
// (0 = unbounded); it reports whether the queue drained.
func (e *Engine) Run(maxEvents uint64) bool {
	for {
		if maxEvents > 0 && e.processed >= maxEvents {
			return len(e.heap) == 0
		}
		if !e.Step() {
			return true
		}
	}
}

// RunUntil fires events with timestamps ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.heap) > 0 {
		if e.slab[e.heap[0]].at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// stop cancels the event in the given slot if the generation still
// matches, reaping it from the heap in place. Eager reaping keeps the
// queue from growing unboundedly when long virtual runs cancel many
// prefetch timers.
func (e *Engine) stop(idx int32, gen uint32) bool {
	if int(idx) >= len(e.slab) {
		return false
	}
	s := &e.slab[idx]
	if s.gen != gen || s.heapIdx < 0 {
		return false
	}
	e.removeAt(int(s.heapIdx))
	e.release(idx)
	return true
}

// release recycles a slab slot, invalidating outstanding Timer handles.
func (e *Engine) release(idx int32) {
	s := &e.slab[idx]
	s.fn = nil
	s.gen++
	s.heapIdx = -1
	e.free = append(e.free, idx)
}

// less orders slab slots by (at, seq): earliest deadline first, FIFO on
// ties.
func (e *Engine) less(a, b int32) bool {
	x, y := &e.slab[a], &e.slab[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// removeAt deletes the heap element at position i and returns its slab
// index. The caller is responsible for releasing or re-queueing the slot.
func (e *Engine) removeAt(i int) int32 {
	n := len(e.heap) - 1
	idx := e.heap[i]
	if i != n {
		e.heap[i] = e.heap[n]
		e.slab[e.heap[i]].heapIdx = int32(i)
		e.heap = e.heap[:n]
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	} else {
		e.heap = e.heap[:n]
	}
	e.slab[idx].heapIdx = -1
	return idx
}

// siftUp restores the heap property upward from position i.
func (e *Engine) siftUp(i int) {
	idx := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(idx, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slab[e.heap[i]].heapIdx = int32(i)
		i = p
	}
	e.heap[i] = idx
	e.slab[idx].heapIdx = int32(i)
}

// siftDown restores the heap property downward from position i; it
// reports whether the element moved.
func (e *Engine) siftDown(i int) bool {
	idx := e.heap[i]
	n := len(e.heap)
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if e.less(e.heap[k], e.heap[best]) {
				best = k
			}
		}
		if !e.less(e.heap[best], idx) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slab[e.heap[i]].heapIdx = int32(i)
		i = best
	}
	e.heap[i] = idx
	e.slab[idx].heapIdx = int32(i)
	return i > start
}
