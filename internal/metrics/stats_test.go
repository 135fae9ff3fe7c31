package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("mean = %v, want 2", s.Mean)
	}
	if math.Abs(s.Stddev-1) > 1e-12 {
		t.Errorf("stddev = %v, want 1", s.Stddev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Median != 7 || s.CILow != 7 || s.CIHigh != 7 || s.Stddev != 0 {
		t.Errorf("single summary: %+v", s)
	}
}

func TestMedianEvenSample(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", s.Median)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentileSorted(nil, 0.5)) {
		t.Error("percentile of empty sample should be NaN")
	}
}

// Property: Min ≤ CILow ≤ Median ≤ CIHigh ≤ Max, and the summary is
// invariant under permutation.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if !(s.Min <= s.CILow && s.CILow <= s.Median && s.Median <= s.CIHigh && s.CIHigh <= s.Max) {
			return false
		}
		// Permutation invariance: sort and re-summarize.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		s2 := Summarize(sorted)
		return s.Median == s2.Median && s.CILow == s2.CILow && s.CIHigh == s2.CIHigh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMedianCI95Bounds(t *testing.T) {
	for n := 1; n <= 300; n++ {
		lo, hi := medianCI95(n)
		if lo < 0 || hi > n-1 || lo > hi {
			t.Fatalf("medianCI95(%d) = (%d,%d) out of bounds", n, lo, hi)
		}
		mid := (n - 1) / 2
		if n >= 3 && (lo > mid || hi < mid) {
			t.Fatalf("medianCI95(%d) = (%d,%d) does not cover the median index %d", n, lo, hi, mid)
		}
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.primed {
		t.Fatal("fresh EMA should not be primed")
	}
	if got := e.Value(42); got != 42 {
		t.Errorf("unprimed Value = %v, want default", got)
	}
	e.Observe(10)
	if got := e.Value(0); got != 10 {
		t.Errorf("first observation = %v, want 10", got)
	}
	e.Observe(20)
	if got := e.Value(0); got != 15 {
		t.Errorf("after 10,20 = %v, want 15", got)
	}
	e.Observe(15)
	if got := e.Value(0); got != 15 {
		t.Errorf("after 10,20,15 = %v, want 15", got)
	}
	e.Reset()
	if e.primed {
		t.Error("reset EMA should be unprimed")
	}
}

func TestEMAClampsFactor(t *testing.T) {
	for _, f := range []float64{-1, 0, 1.5} {
		e := NewEMA(f)
		e.Observe(0)
		e.Observe(10)
		if got := e.Value(0); got != 5 {
			t.Errorf("clamped factor %v: value = %v, want 5", f, got)
		}
	}
	// f=1 keeps only the latest observation.
	e := NewEMA(1)
	e.Observe(3)
	e.Observe(9)
	if got := e.Value(0); got != 9 {
		t.Errorf("f=1 value = %v, want 9", got)
	}
}

func TestSeriesAndTable(t *testing.T) {
	tab := NewTable("Fig X", "smax", "time")
	fw := tab.Series("forward")
	for i := 0; i < 5; i++ {
		fw.Add("2", float64(100+i))
		fw.Add("4", float64(50+i))
	}
	tab.Series("backward").Add("2", 150)

	sum, ok := fw.At("2")
	if !ok || sum.N != 5 || sum.Median != 102 {
		t.Fatalf("series summary: %+v ok=%v", sum, ok)
	}
	if _, ok := fw.At("8"); ok {
		t.Error("missing x should not be found")
	}
	if xs := fw.Xs(); len(xs) != 2 || xs[0] != "2" || xs[1] != "4" {
		t.Errorf("Xs order: %v", xs)
	}

	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig X", "forward", "backward", "smax", "102"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// backward has no value at x=4 → "-" placeholder.
	if !strings.Contains(out, "-") {
		t.Error("render should emit placeholder for missing cells")
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("Fig 15a", "storage", "compute")
	h.Set("0.1", "0.5", 1.0)
	h.Set("0.2", "0.5", 2.0)
	h.Set("0.1", "1.0", 0.5)
	if v, ok := h.At("0.2", "0.5"); !ok || v != 2.0 {
		t.Errorf("At = %v,%v", v, ok)
	}
	if _, ok := h.At("0.3", "0.5"); ok {
		t.Error("missing cell should not be found")
	}
	var b strings.Builder
	if err := h.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 15a", "0.1", "1.000", "2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap render missing %q:\n%s", want, out)
		}
	}
}
