package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func baseCfg(seed int64) Config {
	return Config{NumSteps: 1000, NumAnalyses: 10, MinLen: 50, MaxLen: 100, Stride: 1, Seed: seed}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumSteps: 0, NumAnalyses: 1, MinLen: 1, MaxLen: 2, Stride: 1},
		{NumSteps: 10, NumAnalyses: 0, MinLen: 1, MaxLen: 2, Stride: 1},
		{NumSteps: 10, NumAnalyses: 1, MinLen: 0, MaxLen: 2, Stride: 1},
		{NumSteps: 10, NumAnalyses: 1, MinLen: 3, MaxLen: 2, Stride: 1},
		{NumSteps: 10, NumAnalyses: 1, MinLen: 1, MaxLen: 2, Stride: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestGenerateUnknownPattern(t *testing.T) {
	if _, err := Generate(Pattern("Sideways"), baseCfg(1)); err == nil {
		t.Error("unknown pattern should error")
	}
}

func TestForwardIsMonotonePerAnalysis(t *testing.T) {
	tr, err := Generate(Forward, baseCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]int{}
	for _, a := range tr {
		if prev, ok := last[a.Analysis]; ok && a.Step != prev+1 {
			t.Fatalf("forward analysis %d jumped %d → %d", a.Analysis, prev, a.Step)
		}
		last[a.Analysis] = a.Step
	}
}

func TestBackwardIsMonotonePerAnalysis(t *testing.T) {
	tr, err := Generate(Backward, baseCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]int{}
	for _, a := range tr {
		if prev, ok := last[a.Analysis]; ok && a.Step != prev-1 {
			t.Fatalf("backward analysis %d jumped %d → %d", a.Analysis, prev, a.Step)
		}
		last[a.Analysis] = a.Step
	}
}

func TestStride(t *testing.T) {
	cfg := baseCfg(3)
	cfg.Stride = 5
	tr, err := Generate(Forward, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]int{}
	for _, a := range tr {
		if prev, ok := last[a.Analysis]; ok && a.Step != prev+5 {
			t.Fatalf("stride-5 analysis %d stepped %d → %d", a.Analysis, prev, a.Step)
		}
		last[a.Analysis] = a.Step
	}
}

func TestDeterminism(t *testing.T) {
	for _, p := range Patterns() {
		a, err := Generate(p, baseCfg(42))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(p, baseCfg(42))
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ across runs", p)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs across runs", p, i)
			}
		}
		c, _ := Generate(p, baseCfg(43))
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: different seeds gave identical traces", p)
		}
	}
}

// Property: all generated accesses are within the index space and the
// per-analysis access counts respect the configured bounds.
func TestBoundsProperty(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		p := Patterns()[int(which)%len(Patterns())]
		cfg := Config{NumSteps: 500, NumAnalyses: 5, MinLen: 20, MaxLen: 60, Stride: 1, Seed: seed}
		tr, err := Generate(p, cfg)
		if err != nil {
			return false
		}
		counts := map[int]int{}
		for _, a := range tr {
			if a.Step < 1 || a.Step > cfg.NumSteps {
				return false
			}
			counts[a.Analysis]++
		}
		for _, n := range counts {
			// Scans may be truncated at the timeline edge, so only the
			// upper bound is strict.
			if n > cfg.MaxLen {
				return false
			}
		}
		return len(counts) <= cfg.NumAnalyses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestECMWFIsSkewed(t *testing.T) {
	cfg := Config{NumSteps: 2000, NumAnalyses: 30, MinLen: 200, MaxLen: 400, Stride: 1, Seed: 11}
	tr, err := Generate(ECMWF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range tr {
		counts[a.Step]++
	}
	// Skew check: the hottest 10% of touched steps should absorb well
	// over 10% of accesses (Zipf-like popularity).
	var freqs []int
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	total := 0
	for _, n := range freqs {
		total += n
	}
	// selection: top decile by simple threshold sweep
	maxF := 0
	for _, n := range freqs {
		if n > maxF {
			maxF = n
		}
	}
	hot := 0
	for _, n := range freqs {
		if n >= maxF/4 {
			hot += n
		}
	}
	if float64(hot) < 0.2*float64(total) {
		t.Errorf("ECMWF trace not skewed enough: hot=%d total=%d unique=%d", hot, total, len(counts))
	}
}

func TestInterleaveZeroKeepsOrder(t *testing.T) {
	tr, _ := Generate(Forward, baseCfg(5))
	out := Interleave(tr, 0, 1)
	if len(out) != len(tr) {
		t.Fatal("length changed")
	}
	for i := range tr {
		if out[i] != tr[i] {
			t.Fatal("overlap=0 must preserve order")
		}
	}
}

// Property: Interleave is a permutation that preserves per-analysis order.
func TestInterleavePermutationProperty(t *testing.T) {
	f := func(seed int64, overlapPct uint8) bool {
		tr, err := Generate(Forward, baseCfg(seed))
		if err != nil {
			return false
		}
		overlap := float64(overlapPct%101) / 100
		out := Interleave(tr, overlap, seed)
		if len(out) != len(tr) {
			return false
		}
		// Per-analysis subsequences must be identical.
		split := func(t []Access) map[int][]int {
			m := map[int][]int{}
			for _, a := range t {
				m[a.Analysis] = append(m[a.Analysis], a.Step)
			}
			return m
		}
		ma, mb := split(tr), split(out)
		if len(ma) != len(mb) {
			return false
		}
		for k, va := range ma {
			vb := mb[k]
			if len(va) != len(vb) {
				return false
			}
			for i := range va {
				if va[i] != vb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterleaveHighOverlapMixes(t *testing.T) {
	tr, _ := Generate(Forward, Config{NumSteps: 1000, NumAnalyses: 4, MinLen: 50, MaxLen: 50, Stride: 1, Seed: 9})
	out := Interleave(tr, 1.0, 2)
	// With full overlap, the first few accesses should not all belong to
	// analysis 0.
	mixed := false
	for _, a := range out[:20] {
		if a.Analysis != out[0].Analysis {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Error("overlap=1 should interleave analyses")
	}
}

func TestGenerateWithMatchesGenerate(t *testing.T) {
	cfg := Config{NumSteps: 500, NumAnalyses: 10, MinLen: 20, MaxLen: 60, Stride: 1, Seed: 7}
	// One rng and one buffer reused across patterns must still reproduce
	// each pattern's trace exactly.
	rng := rand.New(rand.NewSource(1))
	var buf []Access
	for _, p := range Patterns() {
		want, err := Generate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = GenerateWith(rng, buf, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(want) {
			t.Fatalf("%s: GenerateWith %d accesses, Generate %d", p, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("%s: access %d = %+v, want %+v", p, i, buf[i], want[i])
			}
		}
	}
	if _, err := GenerateWith(rng, nil, Pattern("nope"), cfg); err == nil {
		t.Error("unknown pattern accepted")
	}
}
