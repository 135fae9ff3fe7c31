package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"simfs/internal/metrics"
	"simfs/internal/netproto"
)

var update = flag.Bool("update", false, "rewrite testdata/stats.txt from this run")

// TestPrintStatsGolden holds `simfs-ctl stats`' output for a fixed
// frame, every field set, to testdata/stats.txt byte for byte. The
// scheduler's Queued and per-class Jobs are set but not printed: the
// output predates them.
func TestPrintStatsGolden(t *testing.T) {
	st := metrics.Report{
		CtxStats: metrics.CtxStats{
			Opens: 120, Hits: 90, Misses: 30, Restarts: 12, DemandRestarts: 9,
			PrefetchLaunches: 3, DroppedPrefetch: 2, StepsProduced: 96,
			Evictions: 40, Kills: 1, Failures: 4, PollutionResets: 1,
		},
		Draining: true, CachePolicy: "LIRS",
		LockStats: metrics.LockStats{Acquisitions: 5000, Contended: 25, Wait: 1_500_000},
		SchedStats: metrics.SchedStats{
			QueueDepth: 3, Queued: 11, Coalesced: 7, Dropped: 2, Canceled: 1,
			DemandWait: metrics.SchedClassWait{Jobs: 9, Wait: 2_250_000_000},
			GuidedWait: metrics.SchedClassWait{Jobs: 2, Wait: 40_000_000},
			Preempted:  2, Promoted: 1, QuotaRounds: 6, QuotaDeferred: 4,
		},
		ClientLoads: map[string]uint64{"viz": 24, "ana": 64},
		Retries:     3, Quarantined: 1,
		Ops: []metrics.OpLatency{
			{Op: netproto.OpOpen, Count: 120, P50Ns: 16384, P99Ns: 2097152},
			{Op: netproto.OpStats, Count: 1, P50Ns: 65536, P99Ns: 65536},
		},
	}
	var got bytes.Buffer
	printStats(&got, st)
	const path = "testdata/stats.txt"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("printStats output differs from %s:\n%s", path, got.Bytes())
	}
}

// quarantine-reset clears one context when -context or the positional
// argument names it, and every context only when neither does.
func TestQuarantineScope(t *testing.T) {
	for _, tc := range []struct {
		flagCtx string
		args    []string
		want    string
		refused bool
	}{
		{"", []string{"quarantine-reset"}, "", false},
		{"demo", []string{"quarantine-reset"}, "demo", false},
		{"", []string{"quarantine-reset", "demo"}, "demo", false},
		{"demo", []string{"quarantine-reset", "demo"}, "demo", false},
		{"demo", []string{"quarantine-reset", "other"}, "", true},
	} {
		got, err := quarantineScope(tc.flagCtx, tc.args)
		if got != tc.want || (err != nil) != tc.refused {
			t.Errorf("-context %q %v: scope %q, err %v; want %q, refused %v",
				tc.flagCtx, tc.args, got, err, tc.want, tc.refused)
		}
	}
}
