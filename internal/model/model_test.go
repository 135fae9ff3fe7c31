package model

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// Contains reports whether output step i (on grid g) is produced by a
// re-simulation covering the interval: the oracle of the ResimInterval
// tests.
func (iv Interval) Contains(g Grid, i int) bool {
	t := g.OutputTimestep(i)
	return t > iv.Start && t <= iv.End
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Grid
		ok   bool
	}{
		{"valid", Grid{DeltaD: 4, DeltaR: 8, Timesteps: 16}, true},
		{"zero deltaD", Grid{DeltaD: 0, DeltaR: 8, Timesteps: 16}, false},
		{"zero deltaR", Grid{DeltaD: 4, DeltaR: 0, Timesteps: 16}, false},
		{"negative timesteps", Grid{DeltaD: 4, DeltaR: 8, Timesteps: -1}, false},
		{"deltaR smaller than deltaD", Grid{DeltaD: 8, DeltaR: 4, Timesteps: 16}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.g.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.g, err, c.ok)
			}
		})
	}
}

// TestPaperFigure3 checks the exact scenario of the paper's Figure 3:
// Δd=4, Δr=8, outputs d1..d4 at t=4,8,12,16 and restarts r1,r2 at t=8,16.
func TestPaperFigure3(t *testing.T) {
	g := Grid{DeltaD: 4, DeltaR: 8, Timesteps: 16}
	if got := g.NumOutputSteps(); got != 4 {
		t.Fatalf("NumOutputSteps = %d, want 4", got)
	}
	if got := g.NumRestartSteps(); got != 2 {
		t.Fatalf("NumRestartSteps = %d, want 2", got)
	}
	wantRestart := map[int]int{1: 0, 2: 0, 3: 8, 4: 8}
	for i, want := range wantRestart {
		if got := g.RestartBefore(i); got != want {
			t.Errorf("RestartBefore(d%d) = %d, want %d", i, got, want)
		}
	}
	wantCost := map[int]int{1: 1, 2: 2, 3: 1, 4: 2}
	for i, want := range wantCost {
		if got := g.MissCost(i); got != want {
			t.Errorf("MissCost(d%d) = %d, want %d", i, got, want)
		}
	}
}

func TestResimInterval(t *testing.T) {
	g := Grid{DeltaD: 4, DeltaR: 8, Timesteps: 20}
	cases := []struct {
		i          int
		start, end int
	}{
		{1, 0, 8},  // d1 at t=4: restart 0, run to next restart t=8
		{2, 0, 8},  // d2 at t=8: restart 0 (t=8 itself cannot reproduce d2)
		{3, 8, 16}, // d3 at t=12
		{4, 8, 16},
		{5, 16, 20}, // clamped to end of timeline
	}
	for _, c := range cases {
		iv, err := g.ResimInterval(c.i)
		if err != nil {
			t.Fatalf("ResimInterval(%d): %v", c.i, err)
		}
		if iv.Start != c.start || iv.End != c.end {
			t.Errorf("ResimInterval(%d) = (%d,%d], want (%d,%d]", c.i, iv.Start, iv.End, c.start, c.end)
		}
		if !iv.Contains(g, c.i) {
			t.Errorf("ResimInterval(%d) does not contain its own output step", c.i)
		}
	}
	if _, err := g.ResimInterval(0); err == nil {
		t.Error("ResimInterval(0) should fail")
	}
	if _, err := g.ResimInterval(6); err == nil {
		t.Error("ResimInterval(6) beyond timeline should fail")
	}
}

func TestOutputsIn(t *testing.T) {
	g := Grid{DeltaD: 4, DeltaR: 8, Timesteps: 32}
	iv := Interval{Start: 8, End: 16}
	first, last, ok := g.OutputsIn(iv)
	if !ok || first != 3 || last != 4 {
		t.Errorf("OutputsIn((8,16]) = %d,%d,%v, want 3,4,true", first, last, ok)
	}
	if _, _, ok := g.OutputsIn(Interval{Start: 8, End: 8}); ok {
		t.Error("empty interval should produce no outputs")
	}
}

func TestExtendToRestart(t *testing.T) {
	g := Grid{DeltaD: 4, DeltaR: 8, Timesteps: 64} // 2 outputs per restart
	cases := []struct{ n, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 6},
	}
	for _, c := range cases {
		if got := g.ExtendToRestart(c.n); got != c.want {
			t.Errorf("ExtendToRestart(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestOutputsPerRestart(t *testing.T) {
	cases := []struct {
		d, r, want int
	}{
		{4, 8, 2}, {5, 60, 12}, {1, 20, 20}, {4, 10, 3} /* non-divisible rounds up */, {8, 4, 1},
	}
	for _, c := range cases {
		g := Grid{DeltaD: c.d, DeltaR: c.r, Timesteps: 1000}
		if got := g.OutputsPerRestart(); got != c.want {
			t.Errorf("OutputsPerRestart(Δd=%d,Δr=%d) = %d, want %d", c.d, c.r, got, c.want)
		}
	}
}

// Property: the re-simulation interval always starts at a restart step,
// covers the requested output step, and ends at a restart step or at the
// end of the timeline.
func TestResimIntervalProperties(t *testing.T) {
	f := func(dd, dr, n, i uint16) bool {
		g := Grid{
			DeltaD:    int(dd%64) + 1,
			DeltaR:    int(dr%256) + 1,
			Timesteps: int(n) + 1,
		}
		no := g.NumOutputSteps()
		if no == 0 {
			return true
		}
		idx := int(i)%no + 1
		iv, err := g.ResimInterval(idx)
		if err != nil {
			return false
		}
		if iv.Start%g.DeltaR != 0 {
			return false // must start at a restart step
		}
		if !iv.Contains(g, idx) {
			return false // must produce the requested output
		}
		if iv.End != g.Timesteps && iv.End%g.DeltaR != 0 {
			return false // must end at a restart step unless clamped
		}
		if iv.Start >= iv.End {
			return false
		}
		// The covered outputs must include idx.
		first, last, ok := g.OutputsIn(iv)
		return ok && first <= idx && idx <= last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: MissCost is within [1, OutputsPerRestart] and RestartBefore is
// the greatest restart multiple strictly below the output timestep.
func TestMissCostProperties(t *testing.T) {
	f := func(dd, dr, i uint16) bool {
		g := Grid{DeltaD: int(dd%64) + 1, DeltaR: int(dr%256) + 1, Timesteps: 1 << 20}
		idx := int(i)%1000 + 1
		r := g.RestartBefore(idx)
		if r%g.DeltaR != 0 || r < 0 {
			return false
		}
		if r >= g.OutputTimestep(idx) {
			return false
		}
		if r+g.DeltaR < g.OutputTimestep(idx) {
			return false // not the closest restart
		}
		cost := g.MissCost(idx)
		return cost >= 1 && cost <= g.OutputsPerRestart()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestContextValidateAndDefaults(t *testing.T) {
	c := &Context{
		Name:        "test",
		Grid:        Grid{DeltaD: 5, DeltaR: 60, Timesteps: 5760},
		OutputBytes: 6 << 30,
		Tau:         20e9,
	}
	c.ApplyDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
	if c.RestartBytes != c.OutputBytes {
		t.Errorf("RestartBytes default = %d, want OutputBytes", c.RestartBytes)
	}
	if c.SMax != 8 || c.AlphaSmoothing != 0.5 {
		t.Errorf("unexpected defaults: SMax=%d smoothing=%v", c.SMax, c.AlphaSmoothing)
	}

	bad := []func(*Context){
		func(c *Context) { c.Name = "" },
		func(c *Context) { c.Grid.DeltaD = 0 },
		func(c *Context) { c.OutputBytes = 0 },
		func(c *Context) { c.Tau = 0 },
		func(c *Context) { c.Alpha = -1 },
		func(c *Context) { c.MaxParallelism = 0 },
		func(c *Context) { c.SMax = 0 },
		func(c *Context) { c.AlphaSmoothing = 1.5 },
		func(c *Context) { c.MaxCacheBytes = -1 },
		func(c *Context) { c.MaxCacheBytes = c.OutputBytes - 1 }, // holds no step
	}
	for n, mutate := range bad {
		cc := *c
		mutate(&cc)
		if err := cc.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", n)
		}
	}
}

func TestContextCapacity(t *testing.T) {
	c := &Context{
		Name:          "cap",
		Grid:          Grid{DeltaD: 1, DeltaR: 10, Timesteps: 100},
		OutputBytes:   10,
		MaxCacheBytes: 55,
		Tau:           1,
	}
	c.ApplyDefaults()
	if got := c.CacheCapacitySteps(); got != 5 {
		t.Errorf("CacheCapacitySteps = %d, want 5", got)
	}
	if got := c.TotalOutputBytes(); got != 1000 {
		t.Errorf("TotalOutputBytes = %d, want 1000", got)
	}
}

func TestTauAt(t *testing.T) {
	c := &Context{
		Name:               "scale",
		Grid:               Grid{DeltaD: 1, DeltaR: 10, Timesteps: 100},
		OutputBytes:        1,
		Tau:                100,
		DefaultParallelism: 10,
		MaxParallelism:     40,
	}
	c.ApplyDefaults()
	if got := c.TauAt(10); got != 100 {
		t.Errorf("TauAt(default) = %v, want 100", got)
	}
	if got := c.TauAt(20); got != 50 {
		t.Errorf("TauAt(2x) = %v, want 50 (linear scaling)", got)
	}
	if got := c.TauAt(80); got != 25 {
		t.Errorf("TauAt(beyond max) = %v, want clamp to max => 25", got)
	}
	if got := c.TauAt(5); got != 200 {
		t.Errorf("TauAt(half) = %v, want 200", got)
	}
	if got := c.TauAt(0); got != 100 {
		t.Errorf("TauAt(0) = %v, want default 100", got)
	}
}

func TestNaming(t *testing.T) {
	c := &Context{Name: "clim", Grid: Grid{DeltaD: 1, DeltaR: 10, Timesteps: 100}, OutputBytes: 1, Tau: 1}
	c.ApplyDefaults()

	name := c.Filename(42)
	if name != "clim_out_00000042.nc" {
		t.Fatalf("Filename(42) = %q", name)
	}
	k, err := c.Key(name)
	if err != nil || k != 42 {
		t.Fatalf("Key(%q) = %d, %v", name, k, err)
	}
	for _, bad := range []string{
		"other_out_00000001.nc", "clim_out_abc.nc", "clim_out_00000001.h5",
		"clim_out_00000000.nc", "clim_out_-0000001.nc", "",
	} {
		if k, err := c.Key(bad); err == nil && c.Grid.ValidOutput(k) {
			t.Errorf("Key(%q) = output step %d, want a refusal", bad, k)
		}
	}
	if rn := c.RestartFilename(60); rn != "clim_out_restart_0000000060.nc" {
		t.Errorf("RestartFilename(60) = %q", rn)
	}
}

// Property: Key is the inverse of Filename and is strictly monotone.
func TestNamingRoundTripProperty(t *testing.T) {
	c := &Context{Name: "p", Grid: Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1 << 20}, OutputBytes: 1, Tau: 1}
	c.ApplyDefaults()
	f := func(a, b uint32) bool {
		i, j := int(a%1000000)+1, int(b%1000000)+1
		ki, err1 := c.Key(c.Filename(i))
		kj, err2 := c.Key(c.Filename(j))
		if err1 != nil || err2 != nil {
			return false
		}
		if ki != i || kj != j {
			return false
		}
		// monotone: later output steps have larger keys
		if i > j && ki <= kj {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: StepFilename prints what the %s%08d%s it replaced printed — at
// the padding boundaries, beyond eight digits, for the negative indices no
// caller passes and for names longer than its stack buffer — in one
// allocation.
func TestStepFilenameMatchesSprintf(t *testing.T) {
	check := func(prefix string, i int, suffix string) {
		t.Helper()
		if got, want := StepFilename(prefix, i, suffix), fmt.Sprintf("%s%08d%s", prefix, i, suffix); got != want {
			t.Fatalf("StepFilename(%q, %d, %q) = %q, Sprintf prints %q", prefix, i, suffix, got, want)
		}
	}
	for p := 1; p <= 1_000_000_000_000; p *= 10 {
		for _, i := range []int{p - 1, p, p + 1, -p} {
			check("clim_out_", i, ".nc")
		}
	}
	check("", 0, "")
	check(strings.Repeat("long/", 20), 42, strings.Repeat(".x", 40))
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		check("p_", int(rng.Int63()>>uint(rng.Intn(63))), ".nc")
	}
	if a := testing.AllocsPerRun(100, func() { StepFilename("clim_out_", 42, ".nc") }); a > 1 {
		t.Errorf("StepFilename allocates %v times, want 1 (the string)", a)
	}
}

// Property: a step has exactly one name. Whatever Key accepts as step i
// is byte for byte what Filename(i) prints — so the cache, the storage
// area and the reference ledgers, all keyed by that name, agree on it.
// The generator covers the ways a decimal can alias: signs, short and
// long padding, steps past eight digits, stray characters.
func TestKeyAcceptsOnlyFilenames(t *testing.T) {
	c := &Context{Name: "p", Grid: Grid{DeltaD: 1, DeltaR: 4, Timesteps: 1 << 20}, OutputBytes: 1, Tau: 1}
	c.ApplyDefaults()
	rng := rand.New(rand.NewSource(1))
	signs := []string{"", "", "", "+", "-"}
	tails := []string{"", "", "", " ", "x", "_"}
	accepted := 0
	for n := 0; n < 20000; n++ {
		step := rng.Intn(1000) + 1
		if rng.Intn(3) == 0 {
			step = 99_999_990 + rng.Intn(1_000_000_000) // around and past 10⁸
		}
		body := signs[rng.Intn(len(signs))] +
			strings.Repeat("0", rng.Intn(12)) + strconv.Itoa(step) + tails[rng.Intn(len(tails))]
		if rng.Intn(4) == 0 {
			body = fmt.Sprintf("%08d", step) // the canonical spelling, so acceptance is exercised too
		}
		name := c.FilePrefix + body + c.FileSuffix
		i, err := c.Key(name)
		if err != nil {
			if name == c.Filename(step) {
				t.Fatalf("Key refused the canonical name %q: %v", name, err)
			}
			continue
		}
		accepted++
		if c.Filename(i) != name {
			t.Fatalf("Key(%q) = %d, but Filename(%d) = %q: two names for one step", name, i, i, c.Filename(i))
		}
	}
	if accepted == 0 {
		t.Fatal("the generator never produced a name Key accepts")
	}
	// Prefix and suffix sharing characters must not let a too-short name through.
	overlap := &Context{FilePrefix: "ab", FileSuffix: "ba"}
	if _, err := overlap.Key("aba"); err == nil {
		t.Error(`Key("aba") under prefix "ab", suffix "ba" succeeded`)
	}
}
