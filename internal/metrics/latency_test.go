package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	// 99 observations around 1us, 1 around 1ms.
	for i := 0; i < 99; i++ {
		h.Record(time.Microsecond)
	}
	h.Record(time.Millisecond)

	if n := h.Count(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	p50 := h.Quantile(0.50)
	if p50 < time.Microsecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want in [1us, 2us] (log2 bucket upper bound)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 > 2*time.Microsecond {
		t.Errorf("p99 = %v, want <= 2us (99th of 100 obs is still the 1us bucket)", p99)
	}
	p100 := h.Quantile(1.0)
	if p100 < time.Millisecond || p100 > 2*time.Millisecond {
		t.Errorf("p100 = %v, want in [1ms, 2ms]", p100)
	}
}

// TestHistogramExactQuantilesKnownStream pins the histogram's exact
// semantics on a hand-computed sample stream: observation v lands in
// log2 bucket bits.Len64(v) and Quantile reports that bucket's upper
// bound 2^i, with rank = floor(q*total) clamped to [1, total]. The
// stream below has bucket cumulative counts 10 (2ns bound), 90
// (128ns), 99 (16.384us), 100 (~8.39ms), so every quantile is an
// exact, stable value rather than a range.
func TestHistogramExactQuantilesKnownStream(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(1 * time.Nanosecond) // bits.Len64(1)=1  -> bound 2ns
	}
	for i := 0; i < 80; i++ {
		h.Record(100 * time.Nanosecond) // bits.Len64(100)=7 -> bound 128ns
	}
	for i := 0; i < 9; i++ {
		h.Record(10 * time.Microsecond) // bits.Len64(10000)=14 -> bound 16384ns
	}
	h.Record(5 * time.Millisecond) // bits.Len64(5e6)=23 -> bound 8388608ns

	if n := h.Count(); n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.01, 2 * time.Nanosecond}, // rank 1: first bucket
		{0.10, 2 * time.Nanosecond}, // rank 10: still the 1ns bucket
		{0.11, 128 * time.Nanosecond},
		{0.50, 128 * time.Nanosecond},
		{0.90, 128 * time.Nanosecond}, // rank 90: last obs of the 100ns bucket
		{0.91, 16384 * time.Nanosecond},
		{0.99, 16384 * time.Nanosecond},
		{1.00, 8388608 * time.Nanosecond}, // rank 100: the lone 5ms outlier
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileRankClamp pins the rank clamp: with a single
// observation every quantile — however small or large q — reports that
// observation's bucket bound.
func TestHistogramQuantileRankClamp(t *testing.T) {
	var h Histogram
	h.Record(100 * time.Nanosecond)
	for _, q := range []float64{0.001, 0.5, 0.999, 1.0} {
		if got := h.Quantile(q); got != 128*time.Nanosecond {
			t.Errorf("Quantile(%v) = %v, want 128ns (single-observation clamp)", q, got)
		}
	}
}

func TestLatencySetExactPercentiles(t *testing.T) {
	s := NewLatencySet("open", "wait")
	// open: 99 fast ops at 100ns, one 1ms straggler — p50 sits in the
	// 128ns bucket, p99 (rank 99) still does, only p100 sees the tail.
	for i := 0; i < 99; i++ {
		s.Record(0, 100*time.Nanosecond)
	}
	s.Record(0, time.Millisecond)

	sums := s.Summaries()
	if len(sums) != 1 || sums[0].Op != "open" || sums[0].Count != 100 {
		t.Fatalf("summaries = %+v, want one open entry with count 100", sums)
	}
	if sums[0].P50Ns != 128 {
		t.Errorf("open p50 = %dns, want 128ns", sums[0].P50Ns)
	}
	if sums[0].P99Ns != 128 {
		t.Errorf("open p99 = %dns, want 128ns (rank 99 of 100 is still the fast bucket)", sums[0].P99Ns)
	}
}

func TestHistogramEmptyAndNonPositive(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	h.Record(0)
	h.Record(-time.Second)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("non-positive observations p50 = %v, want 0", got)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
}

func TestLatencySetKnownAndOther(t *testing.T) {
	s := NewLatencySet("open", "wait")
	s.Record(0, 100*time.Nanosecond)
	s.Record(0, 100*time.Nanosecond)
	s.Record(1, time.Millisecond)
	s.Record(2, time.Microsecond) // not in the set

	sums := s.Summaries()
	if len(sums) != 3 {
		t.Fatalf("got %d summaries, want 3 (open, wait, other): %+v", len(sums), sums)
	}
	if sums[0].Op != "open" || sums[0].Count != 2 {
		t.Errorf("first summary = %+v, want op=open count=2", sums[0])
	}
	if sums[1].Op != "wait" || sums[1].Count != 1 {
		t.Errorf("second summary = %+v, want op=wait count=1", sums[1])
	}
	if sums[2].Op != "other" || sums[2].Count != 1 {
		t.Errorf("third summary = %+v, want op=other count=1", sums[2])
	}
	if p99 := time.Duration(sums[1].P99Ns); p99 < time.Millisecond || p99 > 2*time.Millisecond {
		t.Errorf("wait p99 = %v, want in [1ms, 2ms]", p99)
	}
	// Ops with zero observations are omitted.
	s2 := NewLatencySet("open", "wait")
	s2.Record(0, time.Microsecond)
	if sums := s2.Summaries(); len(sums) != 1 || sums[0].Op != "open" {
		t.Errorf("summaries with one recorded op = %+v, want just open", sums)
	}
	// An index given no name times nothing of its own.
	s3 := NewLatencySet("", "wait")
	s3.Record(0, time.Microsecond)
	if sums := s3.Summaries(); len(sums) != 1 || sums[0].Op != "other" || sums[0].Count != 1 {
		t.Errorf("summaries of an unnamed index = %+v, want just other", sums)
	}
}

func TestLatencySetConcurrent(t *testing.T) {
	s := NewLatencySet("open")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record(0, time.Microsecond)
				s.Record(-1, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	sums := s.Summaries()
	if len(sums) != 2 || sums[0].Count != 4000 || sums[1].Count != 4000 {
		t.Fatalf("concurrent summaries = %+v, want open=4000 other=4000", sums)
	}
}
