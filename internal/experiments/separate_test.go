package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"simfs/internal/metrics"
)

// sameRows are the row pairs of an ablation table that may read alike
// in every column, each with the reason, keyed "<title>: <row> = <row>"
// (the rows in table order). An entry no table produces is stale and
// fails the gate too.
var sameRows = map[string]string{}

// TestAblationsSeparate is the gate against ablation rows that show
// nothing: in every table `simfs-bench -fig ablations|sched|preempt`
// prints, at seeds 1–3, no two rows may print the same cell
// in every column unless sameRows names the pair with a reason. A row
// that copies another is a knob the table cannot tell apart from its
// neighbour: move the ablation to a workload where it matters, or delete
// the row.
func TestAblationsSeparate(t *testing.T) {
	seeded := []func(int64) (*metrics.Table, error){AblationScheduler, AblationPreempt}
	var tabs []*metrics.Table
	for _, run := range []func() (*metrics.Table, error){AblationPrefetchStrategies, AblationDoubling, AblationEMA} {
		tab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, run := range seeded {
			tab, err := run(seed)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
	}

	seen := map[string]bool{}
	for _, tab := range tabs {
		rows := tab.Rows()[1:]
		for i, a := range rows {
			for _, b := range rows[i+1:] {
				if !slices.Equal(a[1:], b[1:]) {
					continue
				}
				k := fmt.Sprintf("%s: %s = %s", tab.Title, a[0], b[0])
				if _, ok := sameRows[k]; ok {
					seen[k] = true
					continue
				}
				t.Errorf("%s: rows %q and %q both read %s", tab.Title, a[0], b[0], strings.Join(a[1:], " | "))
			}
		}
	}
	for k := range sameRows {
		if !seen[k] {
			t.Errorf("sameRows lists %q, which no table prints: drop the entry", k)
		}
	}
}
