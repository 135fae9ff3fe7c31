package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is the number of log2 histogram buckets. Bucket i
// holds durations whose nanosecond count has bit length i, i.e. the
// range [2^(i-1), 2^i). 64 buckets cover every possible int64
// duration.
const latencyBuckets = 64

// Histogram is a lock-free log2-bucketed latency histogram. Record
// costs one atomic add; quantiles are read by summing the buckets.
// Reported quantile values are the upper bound of the matched bucket,
// so they are exact to within a factor of 2 — plenty to tell a 50 us
// dispatch from a 4 ms re-simulation wait, at zero allocation on the
// serving path. The zero value is ready to use.
type Histogram struct {
	buckets [latencyBuckets]atomic.Uint64
}

// Record adds one observation. Non-positive durations land in the
// lowest bucket.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))%latencyBuckets].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of
// the recorded durations, or 0 if nothing was recorded.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [latencyBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return time.Duration(upperBoundNs(i))
		}
	}
	return time.Duration(upperBoundNs(latencyBuckets - 1))
}

// upperBoundNs is the exclusive upper bound of bucket i, clamped so it
// never overflows int64.
func upperBoundNs(i int) int64 {
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// OpLatency is the per-operation summary the stats frame carries as it
// is (Report.Ops): observation count plus p50/p99 upper bounds in
// nanoseconds.
type OpLatency struct {
	Op    string `json:"op"`
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// LatencySet tracks one Histogram per operation, by the index the op
// was given at construction (the daemon's op-table row), so Record is
// a lock-free slice read; an index outside the set, or one given no
// name, is folded into a catch-all "other" histogram, not dropped.
type LatencySet struct {
	ops   []string
	hists []*Histogram // by index; nil where ops names none
	other Histogram
}

// NewLatencySet builds a set tracking the given ops by index, in the
// given display order, plus an implicit "other" bucket. An empty name
// keeps its index in "other".
func NewLatencySet(ops ...string) *LatencySet {
	s := &LatencySet{ops: append([]string(nil), ops...), hists: make([]*Histogram, len(ops))}
	for i, op := range ops {
		if op != "" {
			s.hists[i] = &Histogram{}
		}
	}
	return s
}

// Record adds one observation for the op at index i.
func (s *LatencySet) Record(i int, d time.Duration) {
	if uint(i) < uint(len(s.hists)) && s.hists[i] != nil {
		s.hists[i].Record(d)
		return
	}
	s.other.Record(d)
}

// Summaries returns one OpLatency per op that has at least one
// observation, in construction order, with "other" last.
func (s *LatencySet) Summaries() []OpLatency {
	out := make([]OpLatency, 0, len(s.ops)+1)
	for i, h := range s.hists {
		if h == nil {
			continue
		}
		if n := h.Count(); n > 0 {
			out = append(out, OpLatency{Op: s.ops[i], Count: n, P50Ns: int64(h.Quantile(0.50)), P99Ns: int64(h.Quantile(0.99))})
		}
	}
	if n := s.other.Count(); n > 0 {
		out = append(out, OpLatency{Op: "other", Count: n, P50Ns: int64(s.other.Quantile(0.50)), P99Ns: int64(s.other.Quantile(0.99))})
	}
	return out
}
