package core

import (
	"testing"
	"time"

	"simfs/internal/model"
)

// BenchmarkCoveredUntilStrided times the prefetch agent's coverage probe
// (coveredUntil): a stride-3 walk over a 450-step context whose odd
// steps are resident and even steps promised, so the probes alternate
// between the two, every one answers "covered" and the walk runs to the
// end of the timeline: 149 probes, about what a strided trajectory makes
// per open.
func BenchmarkCoveredUntilStrided(b *testing.B) {
	const n, stride = 450, 3
	ctx := &model.Context{
		Name:               "c",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: n},
		OutputBytes:        1,
		MaxCacheBytes:      n,
		Tau:                time.Second,
		Alpha:              time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               1,
		NoPrefetch:         true,
	}
	ctx.ApplyDefaults()
	v := New(nil, nil)
	if err := v.AddContext(ctx, "LRU", nil); err != nil {
		b.Fatal(err)
	}
	var odd []int
	for s := 1; s <= n; s += 2 {
		odd = append(odd, s)
	}
	if err := v.Preload("c", odd); err != nil {
		b.Fatal(err)
	}
	cs, _ := v.shardOf("c")
	cs.mu.Lock()
	defer cs.mu.Unlock()
	// The even steps are promised by a simulation the benchmark names
	// itself: the probe reads the marker, not the simulation.
	v.markPromised(cs, 1, n, 1)
	want := 1 + (n-1)/stride*stride
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if got := v.coveredUntil(cs, 1, 1, stride); got != want {
			b.Fatalf("coveredUntil = %d, want %d", got, want)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64((n-1)/stride), "ns/probe")
}
