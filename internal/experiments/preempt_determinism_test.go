package experiments

import (
	"bytes"
	"testing"
)

// TestAblationPreemptEffects pins the PR's acceptance criterion on the
// contended 10-client workload under a node budget: with preemption on,
// cumulative demand queue-wait drops versus priorities-only, no
// prefetch is ever dropped (the victim's interval is requeued, not
// discarded), and the preemption counter proves the mechanism actually
// fired rather than the workload having gone uncontended.
func TestAblationPreemptEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("10-client DES sweeps; skipped with -short")
	}
	tab, err := AblationPreempt(1)
	if err != nil {
		t.Fatal(err)
	}
	at := func(series, mode string) float64 {
		s, ok := tab.Series(series).At(mode)
		if !ok {
			t.Fatalf("missing cell %s/%s", series, mode)
		}
		return s.Median
	}
	baseWait := at("demand wait (s)", "priorities")
	if baseWait <= 0 {
		t.Fatal("the priorities-only baseline shows no demand queue-wait: the workload is not contended")
	}
	if at("preempted", "priorities") != 0 {
		t.Error("preemption fired with the policy off")
	}
	if at("preempted", "+preempt-youngest") <= 0 {
		t.Error("+preempt-youngest: preemption never fired on the contended workload")
	}
	if w := at("demand wait (s)", "+preempt-youngest"); w >= baseWait {
		t.Errorf("+preempt-youngest: demand wait %.1fs did not drop below the priorities-only %.1fs", w, baseWait)
	}
	// Demand is never dropped by design, and with priorities on neither
	// is prefetch — preemption must keep it that way in every mode.
	for _, mode := range []string{"priorities", "+preempt-youngest", "+preempt+drr"} {
		if d := at("dropped prefetch", mode); d != 0 {
			t.Errorf("%s: %v dropped launches, want 0", mode, d)
		}
	}
}

// TestAblationPreemptParallelDeterminism: preemption decisions ride the
// DES event thread, so the ablation's tables must not depend on the
// experiment worker count.
func TestAblationPreemptParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation twice; skipped with -short")
	}
	render := func(workers int) string {
		SetWorkers(workers)
		defer SetWorkers(0)
		tab, err := AblationPreempt(1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Errorf("preempt ablation tables depend on worker count:\n-- j1 --\n%s\n-- j4 --\n%s", seq, par)
	}
}
