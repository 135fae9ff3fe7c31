package experiments

import "testing"

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

func TestAblationPinPressure(t *testing.T) {
	tab, err := AblationPinPressure()
	if err != nil {
		t.Fatal(err)
	}
	// With nothing pinned there are no overflows; at 90% pinned pressure
	// every policy must still be able to evict the unpinned remainder, so
	// overflows stay zero too — the engine retries the victim stream.
	for _, pol := range []string{"LRU", "DCL", "LIRS", "ARC", "BCL"} {
		z, ok := tab.Series(pol).At("0%")
		if !ok {
			t.Fatalf("missing %s@0%%", pol)
		}
		if z.Median != 0 {
			t.Errorf("%s: overflows with no pins: %.0f", pol, z.Median)
		}
		h, ok := tab.Series(pol).At("90%")
		if !ok {
			t.Fatalf("missing %s@90%%", pol)
		}
		if h.Median != 0 {
			t.Errorf("%s: %v overflow events at 90%% pins; victims must skip pinned entries", pol, h.Median)
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
		if !ok || s.Median <= 0 {
			t.Errorf("missing or non-positive completion for smoothing %s", x)
		}
	}
}
