package experiments

import (
	"bytes"
	"testing"
)

// TestAblationAutoscaleEffects pins the PR's acceptance criterion on the
// phase-changing workload: the closed-loop controller must undercut
// every static configuration on cumulative demand queue-wait and on the
// class-neutral total of client blocked time, with the demand-join rule
// (part of Priorities, which every row runs) proven to have fired.
func TestAblationAutoscaleEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("two-phase DES sweeps; skipped with -short")
	}
	tab, err := AblationAutoscale(1)
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
	statics := []string{"static dcl", "static lru", "static dcl+preempt", "static lru+preempt"}

	// Acceptance criterion: the controller beats every static config on
	// demand queue-wait.
	ctlWait := at("demand wait (s)", "controller")
	if ctlWait <= 0 {
		t.Fatal("controller row shows no demand wait: the workload is not contended")
	}
	for _, mode := range statics {
		if w := at("demand wait (s)", mode); ctlWait >= w {
			t.Errorf("controller demand wait %.1fs did not undercut %s at %.1fs", ctlWait, mode, w)
		}
	}
	if at("decisions", "controller") <= 0 {
		t.Error("controller recorded no decisions: it never actually steered")
	}
	for _, mode := range statics {
		if at("decisions", mode) != 0 {
			t.Errorf("%s: static row recorded decisions", mode)
		}
	}

	// Class-neutral check: whatever ledger a wait was billed to, the
	// controller's clients spent less time blocked than any static
	// row's. (Median completion is not asserted: static lru's 195.5 s
	// edges the controller's 203 s on this seed.)
	if at("promoted", "controller") <= 0 {
		t.Error("controller: demand-join never promoted a queued job")
	}
	ctlBlocked := at("client blocked (s)", "controller")
	for _, mode := range statics {
		if b := at("client blocked (s)", mode); ctlBlocked >= b {
			t.Errorf("controller blocked %.0fs did not undercut %s at %.0fs", ctlBlocked, mode, b)
		}
	}
}

// TestAblationAutoscaleParallelDeterminism: controller decisions ride
// the DES event thread (clock-injected, sorted context iteration), so
// the ablation's tables must not depend on the experiment worker count.
func TestAblationAutoscaleParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation twice; skipped with -short")
	}
	render := func(workers int) string {
		SetWorkers(workers)
		defer SetWorkers(0)
		tab, err := AblationAutoscale(1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := render(1), render(6); seq != par {
		t.Errorf("autoscale ablation tables depend on worker count:\n-- j1 --\n%s\n-- j6 --\n%s", seq, par)
	}
}
