package experiments

import (
	"testing"

	"simfs/internal/cache"
)

func TestAblationPrefetchStrategies(t *testing.T) {
	tab, err := AblationPrefetchStrategies()
	if err != nil {
		t.Fatal(err)
	}
	at := func(x string) float64 {
		s, ok := tab.Series("forward").At(x)
		if !ok {
			t.Fatalf("missing %q", x)
		}
		return s.Median
	}
	no := at("no prefetch")
	s2 := at("masking only (smax=2)")
	s8 := at("bandwidth (smax=8)")
	if !(s8 < s2 && s2 < no) {
		t.Errorf("expected monotone improvement: none=%.0f smax2=%.0f smax8=%.0f", no, s2, s8)
	}
}

func TestAblationDoubling(t *testing.T) {
	tab, err := AblationDoubling()
	if err != nil {
		t.Fatal(err)
	}
	imm, ok1 := tab.Series("steps produced").At("immediate")
	dbl, ok2 := tab.Series("steps produced").At("doubling")
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	// The doubling ramp must not produce more speculative work than
	// launching sopt immediately.
	if dbl.Median > imm.Median {
		t.Errorf("doubling produced %.0f steps, immediate %.0f", dbl.Median, imm.Median)
	}
	tImm, _ := tab.Series("running time (s)").At("immediate")
	tDbl, _ := tab.Series("running time (s)").At("doubling")
	// Ramp-up trades a bounded amount of time for the reduced waste.
	if tDbl.Median > 2*tImm.Median {
		t.Errorf("doubling time %.0fs more than doubles immediate %.0fs", tDbl.Median, tImm.Median)
	}
}

// TestAblationPinPressure keeps the check the deleted pin-pressure table
// made, whose every cell read 0 by construction: with a growing fraction
// of a full cache guarded, a stream of unguarded newcomers always finds an
// unguarded victim under every policy, so no insert is ever blocked.
func TestAblationPinPressure(t *testing.T) {
	const full = 64
	for _, pol := range cache.PolicyNames() {
		for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
			p, err := cache.NewPolicy(pol, full)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.NewStepCache(p, full) // 1-byte entries
			pinned := int(frac * full)
			for k := 0; k < full; k++ {
				if _, err := c.InsertDiscard(k, 1, 1); err != nil {
					t.Fatal(err)
				}
			}
			c.PinnedBy(func(k int) bool { return k < pinned })
			for i := 0; i < 4*full; i++ {
				if _, err := c.InsertDiscard(full+i, 1, i%12+1); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.Stats().PinBlocked; got != 0 || c.UsedBytes() != full {
				t.Errorf("%s, %.0f%% pinned: PinBlocked=%d used=%d; want 0 and %d", pol, frac*100, got, c.UsedBytes(), full)
			}
			for k := 0; k < pinned; k++ {
				if !c.Contains(k) {
					t.Fatalf("%s, %.0f%% pinned: guarded key %d evicted", pol, frac*100, k)
				}
			}
		}
	}
}

func TestAblationEMA(t *testing.T) {
	tab, err := AblationEMA()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []string{"0.1", "0.3", "0.5", "0.9"} {
		s, ok := tab.Series("forward").At(x)
		if !ok || s.Median <= 0 || s.N != 40 {
			t.Errorf("smoothing %s: %+v, %v; want a positive median over 40 queue seeds", x, s, ok)
		}
	}
}
