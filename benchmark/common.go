package main

import (
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"

	"simfs/internal/des"
)

// wall is the benchmark's only stopwatch. It goes through the repo's
// sanctioned real-time clock so the package obeys the same wallclock
// rule simfs-vet enforces on the rest of the tree.
var wall = des.NewWallClock()

func now() time.Duration { return wall.Now() }

// us converts a duration to (fractional) microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0 (metrics must stay finite for the JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two (bucket width under 1.6 % of the value),
// 10 KiB however long the run is. Quantiles interpolate inside the
// bucket by rank, so they are continuous rather than bucket bounds.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	subBits     = 6
	sub         = 1 << subBits
	histBuckets = 40 * sub // covers up to 2^45 ns, ten hours
)

func bucketOf(v uint64) int {
	if v < sub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	i := (e+1)*sub + int(v>>e) - sub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketSpan returns the lowest value of bucket i and its width.
func bucketSpan(i int) (low, width float64) {
	if i < sub {
		return float64(i), 1
	}
	e := i/sub - 1
	m := uint64(i%sub + sub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		c := float64(n)
		if rank < cum+c {
			low, width := bucketSpan(i)
			return low + width*(rank-cum+0.5)/c
		}
		cum += c
	}
	low, width := bucketSpan(histBuckets - 1)
	return low + width
}

// median of a small float sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Calibrated time. The reference box's speed wanders by up to a half
// over minutes, in step for every workload: its neighbours load the
// memory system. A register-only loop does not feel it; a walk over an
// array larger than the caches does, and over thirty minutes of runs its
// time tracked each workload's throughput with a correlation of 0.90 to
// 0.98. So a run pauses every windowLen for one probe, and the gated
// timing metrics are reported in calibrated time: wall time divided by
// (median probe / nominalProbe). Ten-run spreads fall from 0.15–0.27 to
// 0.03–0.11 (README.md, "Steadiness"). Counts are not touched.
const (
	probeBytes   = 32 << 20 // larger than the last-level cache share
	probeTouches = 100_000
	// nominalProbe is the probe's time on the reference box when it is
	// quiet. It only fixes the scale: the same constant divides every run.
	nominalProbe = 3 * time.Millisecond
)

// probeMem is mapped outside the Go heap: 32 MiB of live heap would
// double the collector's target and change the very program under test.
var probeMem []byte

// probe times a fixed walk over probeMem: independent pseudo-random
// reads and writes, so it is bound by the memory system, not the core.
func probe() time.Duration {
	if probeMem == nil {
		var err error
		probeMem, err = syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("benchmark: cannot map the probe array: " + err.Error())
		}
		for i := range probeMem { // fault every page in before the first timing
			probeMem[i] = byte(i)
		}
	}
	t0 := now()
	idx, sum := uint64(1), byte(0)
	for i := 0; i < probeTouches; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		j := idx >> 39 // the top 25 bits: 0 … probeBytes-1
		probeMem[j] += byte(idx)
		sum += probeMem[(j+98765)&(probeBytes-1)]
	}
	probeMem[0] = sum // keep the reads alive
	return now() - t0
}

// procSnap is a process-wide resource reading: CPU (user+sys, so the
// clients, the daemons, the router and the kernel's share of the socket
// work are all in it), heap allocation count and GC activity.
type procSnap struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
}

func snap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		at:      now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) less
// the benchmark's own probe array, which is resident in full.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss)/1024 - probeBytes/(1<<20) // Linux reports KiB
}

// liveHeapMB forces a collection and returns what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeCalls runs fn in `rounds` batches of `per` calls on the calling
// goroutine and returns the median batch's nanoseconds per call and the
// mean heap allocations per call. It is the drill stopwatch: medians over
// batches shrug off a stray preemption, allocation counts are exact as
// long as nothing else in the process allocates meanwhile.
func timeCalls(rounds, per int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	batch := make([]float64, rounds)
	i := 0
	for r := range batch {
		t0 := now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		batch[r] = float64(now()-t0) / float64(per)
	}
	runtime.ReadMemStats(&ms)
	return median(batch), float64(ms.Mallocs-m0) / float64(rounds*per)
}
