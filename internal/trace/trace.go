// Package trace generates the analysis access traces of the paper's
// caching evaluation (Sec. III-D, Fig. 5): forward, backward and random
// trajectories over the output step index space, plus an ECMWF-like
// archival trace synthesizer substituting for the proprietary ECFS access
// log (Zipf-skewed file popularity with bursty per-session locality —
// the structural properties that separate cost-aware schemes from pure
// recency ones).
//
// All generators are deterministic given a seed (math/rand), as required
// for reproducible experiments.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Pattern names an access-trajectory family.
type Pattern string

// The four access patterns evaluated in Figure 5.
const (
	Forward  Pattern = "Forward"
	Backward Pattern = "Backward"
	Random   Pattern = "Random"
	ECMWF    Pattern = "ECMWF"
)

// Patterns lists all trace families in the paper's plotting order.
func Patterns() []Pattern { return []Pattern{Backward, ECMWF, Forward, Random} }

// Access is one analysis access to an output step.
type Access struct {
	// Step is the 1-based output step index.
	Step int
	// Analysis identifies which synthetic analysis issued the access
	// (useful when traces are concatenated or interleaved).
	Analysis int
}

// Config parameterizes the synthetic analysis traces of Fig. 5: "we
// generate 50 traces starting their analysis at a random point of the
// simulation timeline and accessing a different number of output steps
// (randomly selected between 100 and 400)".
type Config struct {
	// NumSteps is the number of output steps of the virtualized
	// simulation (the index space is [1, NumSteps]).
	NumSteps int
	// NumAnalyses is the number of single-analysis traces to concatenate.
	NumAnalyses int
	// MinLen and MaxLen bound the per-analysis access count.
	MinLen, MaxLen int
	// Stride is the access stride k (1 = every output step).
	Stride int
	// Seed makes generation deterministic.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSteps < 1:
		return fmt.Errorf("trace: NumSteps must be ≥1, got %d", c.NumSteps)
	case c.NumAnalyses < 1:
		return fmt.Errorf("trace: NumAnalyses must be ≥1, got %d", c.NumAnalyses)
	case c.MinLen < 1 || c.MaxLen < c.MinLen:
		return fmt.Errorf("trace: invalid length bounds [%d,%d]", c.MinLen, c.MaxLen)
	case c.Stride < 1:
		return fmt.Errorf("trace: Stride must be ≥1, got %d", c.Stride)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.MinLen == 0 {
		c.MinLen = 100
	}
	if c.MaxLen == 0 {
		c.MaxLen = 400
	}
	if c.NumAnalyses == 0 {
		c.NumAnalyses = 50
	}
	return c
}

// Generate produces the concatenated trace for the given pattern.
func Generate(p Pattern, cfg Config) ([]Access, error) {
	return GenerateInto(nil, p, cfg)
}

// GenerateInto is Generate appending into dst's storage (the trace starts
// at dst[:0]); it returns the filled slice. The generated accesses are
// identical to Generate's for the same pattern and configuration — only
// the allocation behavior differs, letting rep loops reuse one buffer
// across repetitions instead of allocating a fresh trace slice per rep.
func GenerateInto(dst []Access, p Pattern, cfg Config) ([]Access, error) {
	return GenerateWith(rand.New(rand.NewSource(cfg.Seed)), dst, p, cfg)
}

// GenerateWith is GenerateInto reusing a caller-owned rng, re-seeded
// from cfg.Seed before use — the accesses are identical to Generate's
// for the same pattern and configuration, and a worker-pinned rng makes
// repeated regeneration allocation-free.
func GenerateWith(rng *rand.Rand, dst []Access, p Pattern, cfg Config) ([]Access, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng.Seed(cfg.Seed)
	dst = dst[:0]
	switch p {
	case Forward:
		return scans(dst, cfg, rng, +1), nil
	case Backward:
		return scans(dst, cfg, rng, -1), nil
	case Random:
		return randoms(dst, cfg, rng), nil
	case ECMWF:
		return ecmwfLike(dst, cfg, rng), nil
	}
	return nil, fmt.Errorf("trace: unknown pattern %q", p)
}

// scans builds NumAnalyses directional scans and concatenates them.
func scans(out []Access, cfg Config, rng *rand.Rand, dir int) []Access {
	for a := 0; a < cfg.NumAnalyses; a++ {
		n := cfg.MinLen
		if cfg.MaxLen > cfg.MinLen {
			n += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
		}
		start := rng.Intn(cfg.NumSteps) + 1
		step := start
		for i := 0; i < n; i++ {
			if step < 1 || step > cfg.NumSteps {
				break
			}
			out = append(out, Access{Step: step, Analysis: a})
			step += dir * cfg.Stride
		}
	}
	return out
}

// randoms builds uniformly random accesses.
func randoms(out []Access, cfg Config, rng *rand.Rand) []Access {
	for a := 0; a < cfg.NumAnalyses; a++ {
		n := cfg.MinLen
		if cfg.MaxLen > cfg.MinLen {
			n += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
		}
		for i := 0; i < n; i++ {
			out = append(out, Access{Step: rng.Intn(cfg.NumSteps) + 1, Analysis: a})
		}
	}
	return out
}

// ecmwfLike synthesizes an archival-access trace with the structural
// properties reported for the ECMWF ECFS log (Grawinkel et al., FAST'15,
// as used in the paper): a small hot set absorbs most accesses
// (Zipf-distributed popularity, s≈1.1) while sessions touch short runs of
// temporally adjacent steps (weather analyses read consecutive forecast
// steps). Popularity ranks are shuffled across the timeline so hot files
// are not all near t=0.
func ecmwfLike(out []Access, cfg Config, rng *rand.Rand) []Access {
	// Zipf over ranks; map rank → step through a fixed shuffle.
	perm := rng.Perm(cfg.NumSteps)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(cfg.NumSteps-1))
	for a := 0; a < cfg.NumAnalyses; a++ {
		n := cfg.MinLen
		if cfg.MaxLen > cfg.MinLen {
			n += rng.Intn(cfg.MaxLen - cfg.MinLen + 1)
		}
		for i := 0; i < n; {
			anchor := perm[int(zipf.Uint64())] + 1
			// Bursty session: a short run around the anchor.
			run := 1 + rng.Intn(8)
			for j := 0; j < run && i < n; j++ {
				step := anchor + j
				if step > cfg.NumSteps {
					break
				}
				out = append(out, Access{Step: step, Analysis: a})
				i++
			}
		}
	}
	return out
}

// Interleave merges per-analysis subsequences of a trace so that a given
// fraction of each analysis's accesses overlap in time with other
// analyses (paper Sec. V-A: "the percentage of accesses that an analysis
// performs without being interleaved with others' execution"). overlap=0
// runs analyses strictly one after another; overlap=1 round-robins them.
func Interleave(trace []Access, overlap float64, seed int64) []Access {
	if overlap <= 0 || len(trace) == 0 {
		return append([]Access(nil), trace...)
	}
	if overlap > 1 {
		overlap = 1
	}
	// Split by analysis, preserving order.
	byA := map[int][]Access{}
	var order []int
	for _, acc := range trace {
		if _, ok := byA[acc.Analysis]; !ok {
			order = append(order, acc.Analysis)
		}
		byA[acc.Analysis] = append(byA[acc.Analysis], acc)
	}
	if len(order) == 1 {
		return append([]Access(nil), trace...)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Access, 0, len(trace))
	// Each analysis keeps a solo prefix of (1-overlap) of its accesses;
	// the remaining tails are merged round-robin in random order.
	var tails [][]Access
	for _, a := range order {
		seq := byA[a]
		solo := int(math.Round(float64(len(seq)) * (1 - overlap)))
		out = append(out, seq[:solo]...)
		if solo < len(seq) {
			tails = append(tails, seq[solo:])
		}
	}
	for len(tails) > 0 {
		i := rng.Intn(len(tails))
		out = append(out, tails[i][0])
		tails[i] = tails[i][1:]
		if len(tails[i]) == 0 {
			tails = append(tails[:i], tails[i+1:]...)
		}
	}
	return out
}
