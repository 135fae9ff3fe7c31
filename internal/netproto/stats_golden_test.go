package netproto

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"simfs/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/stats_frame.json from this run")

// fullStats sets every field of the stats frame to a distinct value, so
// a key that is renamed, dropped or merged into another shows in the
// golden.
func fullStats() *metrics.Report {
	return &metrics.Report{
		CtxStats: metrics.CtxStats{
			Opens: 1, Hits: 2, Misses: 3, Restarts: 4, DemandRestarts: 5,
			PrefetchLaunches: 6, DroppedPrefetch: 7, StepsProduced: 8,
			Evictions: 9, Kills: 10, Failures: 11, PollutionResets: 12,
		},
		Draining: true, CachePolicy: "DCL",
		LockStats: metrics.LockStats{Acquisitions: 13, Contended: 14, Wait: 15},
		SchedStats: metrics.SchedStats{
			QueueDepth: 16, Queued: 37, Coalesced: 17, Dropped: 18, Canceled: 19,
			DemandWait: metrics.SchedClassWait{Jobs: 38, Wait: 20},
			GuidedWait: metrics.SchedClassWait{Jobs: 39, Wait: 21},
			AgentWait:  metrics.SchedClassWait{Jobs: 40, Wait: 22},
			Preempted:  23, Promoted: 24, QuotaRounds: 25, QuotaDeferred: 26,
		},
		ClientLoads: map[string]uint64{"ana": 27, "bob": 28},
		Retries:     29, Quarantined: 30,
		Ops: []metrics.OpLatency{
			{Op: OpOpen, Count: 31, P50Ns: 32, P99Ns: 33},
			{Op: OpRelease, Count: 34, P50Ns: 35, P99Ns: 36},
		},
	}
}

// TestStatsFrameGolden holds the stats frame's JSON, the one encoding
// every codec sends it in, to testdata/stats_frame.json (indented for a
// readable diff). A change to the frame's keys regenerates the file with
// `go test ./internal/netproto -run TestStatsFrameGolden -update`.
func TestStatsFrameGolden(t *testing.T) {
	resp := Response{ID: 7, OK: true, Stats: fullStats()}
	var frame bytes.Buffer
	if err := Binary.EncodeFrame(&frame, resp); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, frame.Bytes()[4:], "", "\t"); err != nil {
		t.Fatalf("stats frame payload is not JSON: %v", err)
	}
	got.WriteByte('\n')
	const path = "testdata/stats_frame.json"
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
		t.Errorf("stats frame differs from %s:\n%s", path, got.Bytes())
	}
	var back Response
	if err := Binary.DecodeFrame(&frame, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Errorf("stats frame round trip:\n got %+v\nwant %+v", *back.Stats, *resp.Stats)
	}
}
