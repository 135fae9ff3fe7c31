package model

import (
	"sync"
	"testing"
	"unsafe"
)

// namingContext returns a defaulted context of n output steps.
func namingContext(name string, n int) *Context {
	c := &Context{Name: name, Grid: Grid{DeltaD: 1, DeltaR: 8, Timesteps: n}, OutputBytes: 1, Tau: 1}
	c.ApplyDefaults()
	return c
}

// Differential: whatever the name table returns is what StepFilename
// formats, for every index in and around the timeline — both sides of
// every chunk boundary, a one-step grid, a grid whose Δd leaves a
// remainder — and whichever chunk is touched first.
func TestFilenameMatchesStepFilename(t *testing.T) {
	grids := []Grid{
		{DeltaD: 1, DeltaR: 1, Timesteps: 1},
		{DeltaD: 1, DeltaR: 8, Timesteps: namesPerChunk - 1},
		{DeltaD: 1, DeltaR: 8, Timesteps: namesPerChunk},
		{DeltaD: 1, DeltaR: 8, Timesteps: namesPerChunk + 1},
		{DeltaD: 1, DeltaR: 8, Timesteps: 3 * namesPerChunk},
		{DeltaD: 3, DeltaR: 24, Timesteps: 1000},
	}
	for _, g := range grids {
		c := &Context{Name: "clim", Grid: g, OutputBytes: 1, Tau: 1}
		c.ApplyDefaults()
		n := g.NumOutputSteps()
		if c.names == nil || c.names.n != n {
			t.Fatalf("grid %+v: ApplyDefaults installed %+v, want a table of %d steps", g, c.names, n)
		}
		for i := n + 1; i >= -1; i-- { // last chunk first
			if got, want := c.Filename(i), StepFilename(c.FilePrefix, i, c.FileSuffix); got != want {
				t.Fatalf("grid %+v: Filename(%d) = %q, StepFilename prints %q", g, i, got, want)
			}
		}
	}
}

// Steps from 10⁸ on have nine-digit keys, wider than the table's names:
// Filename formats them.
func TestFilenamePastEightDigits(t *testing.T) {
	c := &Context{Name: "long", Grid: Grid{DeltaD: 1, DeltaR: 8, Timesteps: 150_000_000}, OutputBytes: 1, Tau: 1}
	c.ApplyDefaults()
	if c.names.n != maxTabledStep {
		t.Fatalf("table names %d steps, want %d", c.names.n, maxTabledStep)
	}
	for _, i := range []int{maxTabledStep - 1, maxTabledStep, maxTabledStep + 1, 149_999_999} {
		if got, want := c.Filename(i), StepFilename(c.FilePrefix, i, c.FileSuffix); got != want {
			t.Errorf("Filename(%d) = %q, want %q", i, got, want)
		}
	}
}

// A context without a table — never defaulted, or defaulted with a grid
// Validate will refuse — still names its steps.
func TestFilenameWithoutTable(t *testing.T) {
	raw := &Context{FilePrefix: "x_", FileSuffix: ".nc", Grid: Grid{DeltaD: 1, Timesteps: 10}}
	if got := raw.Filename(5); got != "x_00000005.nc" || raw.names != nil {
		t.Errorf("never-defaulted Filename(5) = %q (table %v), want x_00000005.nc", got, raw.names)
	}
	zero := &Context{Name: "z", Grid: Grid{DeltaD: 0, Timesteps: 10}}
	zero.ApplyDefaults() // before Validate: must not divide by Δd
	if got := zero.Filename(3); got != "z_out_00000003.nc" || zero.names != nil {
		t.Errorf("Δd=0 Filename(3) = %q (table %v), want z_out_00000003.nc", got, zero.names)
	}
}

// Contexts are copied by value. A copy shares its original's table while
// the naming holds, never returns the original's names once renamed, and
// gets a table of its own from ApplyDefaults when the naming or the step
// count changed.
func TestFilenameOfCopiedContext(t *testing.T) {
	orig := namingContext("orig", 600)
	_ = orig.Filename(3) // build the chunk the copies would reuse

	renamed := *orig
	renamed.FilePrefix = "other_"
	if got := renamed.Filename(3); got != "other_00000003.nc" {
		t.Errorf("renamed copy: Filename(3) = %q, want other_00000003.nc", got)
	}
	renamed.ApplyDefaults()
	if renamed.names == orig.names || renamed.Filename(3) != "other_00000003.nc" {
		t.Errorf("renamed copy after ApplyDefaults: shares the table %v, Filename(3) = %q", renamed.names == orig.names, renamed.Filename(3))
	}

	same := *orig
	same.ApplyDefaults()
	if same.names != orig.names {
		t.Error("an unchanged copy rebuilt its table")
	}

	longer := *orig
	longer.Grid.Timesteps = 2000
	longer.ApplyDefaults()
	if longer.names == orig.names || longer.names.n != 2000 || longer.Filename(1500) != "orig_out_00001500.nc" {
		t.Errorf("longer copy: table of %d steps, Filename(1500) = %q", longer.names.n, longer.Filename(1500))
	}
	if got := orig.Filename(3); got != "orig_out_00000003.nc" {
		t.Errorf("original after its copies: Filename(3) = %q", got)
	}
}

// Concurrent first touches of one chunk publish it once: every caller
// gets the right name, carved out of the one chunk that won.
func TestFilenameConcurrentFirstTouch(t *testing.T) {
	c := namingContext("race", 4*namesPerChunk)
	const workers = 8
	names := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := namesPerChunk + 1; i <= 2*namesPerChunk; i++ {
				names[w] = append(names[w], c.Filename(i))
			}
		}()
	}
	wg.Wait()
	chunk := unsafe.StringData(c.Filename(namesPerChunk + 1))
	for w, ns := range names {
		for k, got := range ns {
			i := namesPerChunk + 1 + k
			if want := StepFilename(c.FilePrefix, i, c.FileSuffix); got != want {
				t.Fatalf("worker %d: Filename(%d) = %q, want %q", w, i, got, want)
			}
			if k == 0 && unsafe.StringData(got) != chunk {
				t.Errorf("worker %d named step %d from a chunk that was not published", w, i)
			}
		}
	}
}

// Once a chunk exists, naming one of its steps allocates nothing.
func TestFilenameAllocFree(t *testing.T) {
	c := namingContext("alloc", 1000)
	_, _ = c.Filename(42), c.Filename(900)
	if a := testing.AllocsPerRun(100, func() { nameSink, nameSink = c.Filename(42), c.Filename(900) }); a != 0 {
		t.Errorf("Filename of a built chunk allocates %v times, want 0", a)
	}
}

var nameSink string

// Differential: NameOf of Filename(i)'s bytes hands back that very name,
// exactly for the steps the table holds, on grids around every chunk
// boundary; every other index answers no.
func TestNameOfMatchesFilename(t *testing.T) {
	for _, n := range []int{1, namesPerChunk - 1, namesPerChunk, namesPerChunk + 1, 3 * namesPerChunk} {
		c := namingContext("clim", n)
		for i := n + 1; i >= -1; i-- {
			want := c.Filename(i)
			got, ok := c.NameOf([]byte(want))
			if tabled := 1 <= i && i <= n; ok != tabled || (ok && got != want) {
				t.Fatalf("n=%d: NameOf(%q) = %q, %v; want %v", n, want, got, ok, tabled)
			}
		}
	}
}

// Every name that is not exactly a tabled step's answers no, so the
// caller copies it and core refuses or serves it as before.
func TestNameOfRefusesOtherNames(t *testing.T) {
	c := namingContext("clim", 1000)
	for _, name := range []string{
		"clim_out_2.nc",         // short padding
		"clim_out_000000002.nc", // a leading-zero nine-digit key
		"clim_out_+0000002.nc",  // a sign
		"clim_out_-0000002.nc",
		"clim_out_0000000x.nc",     // not a digit
		"clim_out_00000000.nc",     // step 0
		"clim_out_00001001.nc",     // past n
		"clim_out_100000000.nc",    // i ≥ 10⁸
		"climb_out_0000002.nc",     // a wrong prefix of the right length
		"clim_out_00000002.nx",     // a wrong suffix
		"clim_out_00000002.nc\x00", // a length mismatch
		"clim_out_00000002",
		"",
	} {
		if got, ok := c.NameOf([]byte(name)); ok {
			t.Errorf("NameOf(%q) = %q, want no", name, got)
		}
	}

	raw := &Context{FilePrefix: "x_", FileSuffix: ".nc", Grid: Grid{DeltaD: 1, Timesteps: 10}}
	if got, ok := raw.NameOf([]byte("x_00000005.nc")); ok {
		t.Errorf("a context with no table: NameOf = %q, want no", got)
	}
	renamed := *c
	renamed.FilePrefix = "other_"
	for _, name := range []string{"clim_out_00000002.nc", "other_00000002.nc"} {
		if got, ok := renamed.NameOf([]byte(name)); ok {
			t.Errorf("a copy renamed after its table was built: NameOf(%q) = %q, want no", name, got)
		}
	}
}

// A hit hands out the table's string: no allocation once its chunk is
// built.
func TestNameOfAllocFree(t *testing.T) {
	c := namingContext("alloc", 1000)
	name := []byte(c.Filename(42))
	if a := testing.AllocsPerRun(100, func() { nameSink, _ = c.NameOf(name) }); a != 0 {
		t.Errorf("NameOf of a tabled step allocates %v times, want 0", a)
	}
}
