package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"simfs/internal/costmodel"
	"simfs/internal/metrics"
)

func TestRunCellsOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := RunCells(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d", workers, i, v)
			}
		}
	}
}

func TestRunCellsEmpty(t *testing.T) {
	got, err := RunCells[int](4, 0, func(int) (int, error) { panic("must not run") })
	if err != nil || got != nil {
		t.Fatalf("empty grid: %v, %v", got, err)
	}
}

// The reported error must be the lowest-numbered failing cell's,
// independent of which worker hits its failure first.
func TestRunCellsDeterministicError(t *testing.T) {
	fail := map[int]bool{3: true, 17: true, 40: true}
	for _, workers := range []int{1, 8} {
		_, err := RunCells(workers, 64, func(i int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3's", workers, err)
		}
	}
}

func TestRunCellsStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := RunCells(2, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 1000 {
		t.Errorf("ran %d cells after an early failure", n)
	}
}

// Concurrency stress for the race detector: many workers over many cells,
// each touching only its own result slot.
func TestRunCellsRaceStress(t *testing.T) {
	const cells = 2000
	workers := 4 * runtime.NumCPU()
	if workers < 16 {
		workers = 16
	}
	got, err := RunCells(workers, cells, func(i int) ([]int, error) {
		buf := make([]int, 8)
		for j := range buf {
			buf[j] = i + j
		}
		return buf, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range got {
		for j, v := range buf {
			if v != i+j {
				t.Fatalf("cell %d slot %d = %d", i, j, v)
			}
		}
	}
}

func renderString(t *testing.T, tab *metrics.Table) string {
	t.Helper()
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The headline determinism guarantee: the rendered tables of Fig. 5 and
// Fig. 12 are byte-identical whether the grid runs on one worker or many.
func TestFig05ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size replay in -short mode")
	}
	cfg := DefaultFig05()
	cfg.Reps = 3

	SetWorkers(1)
	defer SetWorkers(0)
	s1, r1, err := Fig05(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NumCPU, but at least enough goroutines to interleave on small hosts.
	n := max(runtime.NumCPU(), 8)
	SetWorkers(n)
	sN, rN, err := Fig05(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderString(t, s1), renderString(t, sN); a != b {
		t.Errorf("steps tables diverge between -j 1 and -j %d:\n--- j=1\n%s--- j=N\n%s", n, a, b)
	}
	if a, b := renderString(t, r1), renderString(t, rN); a != b {
		t.Errorf("restarts tables diverge between -j 1 and -j %d", n)
	}
}

func TestFig12ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cost replay in -short mode")
	}
	w := DefaultCostWorkload()

	SetWorkers(1)
	defer SetWorkers(0)
	t1, err := Fig12(w, costmodel.Azure)
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(max(runtime.NumCPU(), 8))
	tN, err := Fig12(w, costmodel.Azure)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderString(t, t1), renderString(t, tN); a != b {
		t.Errorf("Fig. 12 diverges between -j 1 and -j N:\n--- j=1\n%s--- j=N\n%s", a, b)
	}
}
