package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"simfs/internal/autoscale"
	"simfs/internal/simulator"
)

// TestAutoscaleZeroConfigGolden is the zero-config guard: attaching a
// controller with NO policies armed must leave the run byte-identical to
// the golden tables — the controller samples, but a sample is not an
// actuation. The expected bytes are the MultiAnalysis section of
// sched_golden.txt, generated long before autoscale existed.
func TestAutoscaleZeroConfigGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a DES experiment; skipped with -short")
	}
	golden, err := os.ReadFile("testdata/sched_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSection(string(golden), "== MultiAnalysis clients=6 steps=48 seed=1 backward=0.25")
	if want == "" {
		t.Fatal("golden file has no MultiAnalysis section")
	}

	ctx := simulator.CosmoScaling()
	ctx.MaxCacheBytes = 128 * ctx.OutputBytes
	res, err := MultiAnalysis(ctx, MultiAnalysisConfig{
		Clients: 6, Steps: 48, TauCli: 100 * time.Millisecond, Seed: 1, Backward: 0.25,
		// The guard under test: an attached, ticking, unarmed controller.
		AutoscaleTick: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Fatalf("unarmed controller took %d decisions: %+v", len(res.Decisions), res.Decisions)
	}

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "== MultiAnalysis clients=6 steps=48 seed=1 backward=0.25")
	for i, d := range res.Completion {
		fmt.Fprintf(&buf, "completion[%d]=%v\n", i, d)
	}
	fmt.Fprintf(&buf, "stats=%+v\n", res.Stats)
	if got := buf.String(); got != want {
		t.Errorf("unarmed controller perturbed the run:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// everyTick is a policy that acts on every tick it sees, without
// actuating anything.
type everyTick struct{ ticks int }

func (p *everyTick) Name() string { return "every-tick" }

func (p *everyTick) Evaluate(autoscale.Tick) []autoscale.Action {
	p.ticks++
	return []autoscale.Action{{Reason: fmt.Sprint("tick ", p.ticks)}}
}

// A MultiAnalysis reports every decision its controller took, however
// many ticks the run lasts.
func TestMultiAnalysisReportsEveryDecision(t *testing.T) {
	ctx := simulator.CosmoScaling()
	ctx.MaxCacheBytes = 128 * ctx.OutputBytes
	pol := &everyTick{}
	res, err := MultiAnalysis(ctx, MultiAnalysisConfig{
		Clients: 2, Steps: 8, TauCli: 100 * time.Millisecond, Seed: 1,
		Autoscale: []autoscale.Policy{pol}, AutoscaleTick: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pol.ticks <= 32 {
		t.Fatalf("the run lasted %d ticks, want more than 32", pol.ticks)
	}
	if len(res.Decisions) != pol.ticks {
		t.Fatalf("%d decisions reported for %d ticks", len(res.Decisions), pol.ticks)
	}
	for i, d := range res.Decisions {
		if want := fmt.Sprint("tick ", i+1); d.Reason != want {
			t.Fatalf("decision %d: %q, want %q", i, d.Reason, want)
		}
	}
}

// goldenSection extracts one "== header"-delimited section (header line
// included) from a golden report.
func goldenSection(report, header string) string {
	i := strings.Index(report, header)
	if i < 0 {
		return ""
	}
	rest := report[i:]
	if j := strings.Index(rest[len(header):], "\n== "); j >= 0 {
		return rest[:len(header)+j+1]
	}
	return rest
}
