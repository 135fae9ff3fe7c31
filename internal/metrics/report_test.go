package metrics

// White-box tests for Report.Add, the router's stats fan-out merge: how
// one context's counters and per-op latency percentiles combine across
// the federation members that host its shards. These pin the exact
// merge algebra (counts sum, percentile bounds take the worst member,
// deterministic op order) that fed's TestFederationRouterStats
// exercises end-to-end.

import (
	"reflect"
	"testing"
	"time"
)

func TestMergeOpLatenciesCountsSumPercentilesMax(t *testing.T) {
	a := []OpLatency{
		{Op: "open", Count: 10, P50Ns: 1024, P99Ns: 16384},
		{Op: "wait", Count: 3, P50Ns: 2048, P99Ns: 1 << 20},
	}
	b := []OpLatency{
		{Op: "open", Count: 7, P50Ns: 4096, P99Ns: 8192},
	}
	got := mergeOpLatencies(a, b)
	want := []OpLatency{
		// Counts sum across members; each percentile independently takes
		// the slowest member (here a's p99 but b's p50).
		{Op: "open", Count: 17, P50Ns: 4096, P99Ns: 16384},
		{Op: "wait", Count: 3, P50Ns: 2048, P99Ns: 1 << 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeOpLatencies = %+v, want %+v", got, want)
	}
}

func TestMergeOpLatenciesDisjointOpsSorted(t *testing.T) {
	a := []OpLatency{{Op: "wait", Count: 1, P50Ns: 10, P99Ns: 20}}
	b := []OpLatency{
		{Op: "release", Count: 2, P50Ns: 30, P99Ns: 40},
		{Op: "open", Count: 4, P50Ns: 50, P99Ns: 60},
	}
	got := mergeOpLatencies(a, b)
	want := []OpLatency{
		{Op: "open", Count: 4, P50Ns: 50, P99Ns: 60},
		{Op: "release", Count: 2, P50Ns: 30, P99Ns: 40},
		{Op: "wait", Count: 1, P50Ns: 10, P99Ns: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint merge = %+v, want union sorted by op %+v", got, want)
	}
}

func TestMergeOpLatenciesEmptySides(t *testing.T) {
	b := []OpLatency{{Op: "open", Count: 1, P50Ns: 10, P99Ns: 20}}
	if got := mergeOpLatencies(nil, b); !reflect.DeepEqual(got, b) {
		t.Errorf("mergeOpLatencies(nil, b) = %+v, want b", got)
	}
	a := []OpLatency{{Op: "wait", Count: 2, P50Ns: 5, P99Ns: 6}}
	if got := mergeOpLatencies(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("mergeOpLatencies(a, nil) = %+v, want a", got)
	}
}

// TestMergeStatsAccumulates covers the counter algebra of the stats
// fan-out, including the scheduler fields added for the autoscale
// loop: Promoted and each class's jobs and wait sum, and the
// per-client DRR load ledger merges by client name (a client opening
// against two shards on different members must show its total, not one
// member's share).
func TestMergeStatsAccumulates(t *testing.T) {
	dst := Report{
		CtxStats:    CtxStats{Opens: 5, Hits: 3, Misses: 2},
		CachePolicy: "lru",
		LockStats:   LockStats{Acquisitions: 10, Contended: 1, Wait: time.Millisecond},
		SchedStats: SchedStats{
			Queued:     3,
			DemandWait: SchedClassWait{Jobs: 1, Wait: 100},
			Preempted:  1,
			Promoted:   2,
		},
		ClientLoads: nil, // first member reported none
		Retries:     1,
		Ops:         []OpLatency{{Op: "open", Count: 5, P50Ns: 100, P99Ns: 200}},
	}
	src := Report{
		CtxStats: CtxStats{Opens: 7, Hits: 1, Misses: 6},
		Draining: true,
		SchedStats: SchedStats{
			Queued:     2,
			DemandWait: SchedClassWait{Jobs: 2, Wait: 50},
			Preempted:  4,
			Promoted:   3,
		},
		ClientLoads: map[string]uint64{"c1": 8, "c2": 2},
		Quarantined: 1,
		Ops:         []OpLatency{{Op: "open", Count: 2, P50Ns: 400, P99Ns: 150}},
	}
	dst.Add(src)

	if dst.Opens != 12 || dst.Hits != 4 || dst.Misses != 8 {
		t.Errorf("counter sums = opens %d hits %d misses %d, want 12/4/8", dst.Opens, dst.Hits, dst.Misses)
	}
	if !dst.Draining {
		t.Error("Draining should OR across members")
	}
	if dst.CachePolicy != "lru" {
		t.Errorf("CachePolicy = %q, want first member's %q kept", dst.CachePolicy, "lru")
	}
	if dst.LockStats != (LockStats{Acquisitions: 10, Contended: 1, Wait: time.Millisecond}) {
		t.Errorf("LockStats = %+v, want the first member's alone", dst.LockStats)
	}
	if dst.Queued != 5 || dst.DemandWait != (SchedClassWait{Jobs: 3, Wait: 150}) || dst.Preempted != 5 || dst.Promoted != 5 {
		t.Errorf("sched sums = queued %d demand wait %+v preempted %d promoted %d, want 5/{3 150}/5/5",
			dst.Queued, dst.DemandWait, dst.Preempted, dst.Promoted)
	}
	if dst.Retries != 1 || dst.Quarantined != 1 {
		t.Errorf("retries %d quarantined %d, want 1/1", dst.Retries, dst.Quarantined)
	}
	wantLoads := map[string]uint64{"c1": 8, "c2": 2}
	if !reflect.DeepEqual(dst.ClientLoads, wantLoads) {
		t.Errorf("ClientLoads = %v, want %v", dst.ClientLoads, wantLoads)
	}
	wantOps := []OpLatency{{Op: "open", Count: 7, P50Ns: 400, P99Ns: 200}}
	if !reflect.DeepEqual(dst.Ops, wantOps) {
		t.Errorf("Ops = %+v, want %+v", dst.Ops, wantOps)
	}

	// A third member adds to an existing client and introduces a new one.
	dst.Add(Report{ClientLoads: map[string]uint64{"c1": 1, "c3": 4}})
	wantLoads = map[string]uint64{"c1": 9, "c2": 2, "c3": 4}
	if !reflect.DeepEqual(dst.ClientLoads, wantLoads) {
		t.Errorf("after third member, ClientLoads = %v, want %v", dst.ClientLoads, wantLoads)
	}

	// Adding into the zero record copies: the router's first answer.
	var first Report
	first.Add(src)
	if !reflect.DeepEqual(first, src) {
		t.Errorf("zero.Add(src) = %+v, want %+v", first, src)
	}
}
