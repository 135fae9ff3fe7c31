package core

import (
	"sync"
	"testing"

	"simfs/internal/des"
	"simfs/internal/simulator"
	"simfs/internal/vfs"
)

// A step produced at capacity writes its file to the storage area,
// becomes resident, and makes the cache evict a victim whose file core
// removes from the area. Once the maps and the context's name table are
// warm, none of it allocates: both names come from the table, and the
// victims land in the shard's reused buffer.
func TestStepProducedAtCapacityAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	ctx := testContext("c") // 100 steps, room for 40
	area := vfs.NewMem()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := New(eng, l)
	l.Events = v
	if err := v.AddContext(ctx, "DCL", area); err != nil {
		t.Fatal(err)
	}
	// A demand miss launches a simulation; the engine never runs, so the
	// test reports its steps itself.
	if _, err := v.Open("a1", "c", ctx.Filename(2)); err != nil {
		t.Fatal(err)
	}
	cs, _ := v.shardOf("c")
	var simID int64
	for id := range cs.sims {
		simID = id
	}
	step := 0
	produce := func() {
		step = step%ctx.Grid.NumOutputSteps() + 1
		if err := area.Create(ctx.Filename(step), ctx.OutputBytes); err != nil {
			t.Fatal(err)
		}
		v.StepProduced(simID, step)
	}
	for range 3 * ctx.Grid.NumOutputSteps() {
		produce()
	}
	evictions := cs.stats.Evictions
	if a := testing.AllocsPerRun(500, produce); a != 0 {
		t.Errorf("a step produced at capacity allocates %v times, want 0", a)
	}
	if cs.stats.Evictions == evictions {
		t.Fatal("no step was evicted: the cache never reached capacity")
	}
	if got, want := usedBytes(area), ctx.MaxCacheBytes; got != want {
		t.Errorf("storage area holds %d bytes, want the cache's %d: victims were not removed", got, want)
	}
}

// Names hands a decoder the strings core already holds: the context's
// name and the table's name of a step, with the step, without an
// allocation. A name
// that is not a tabled step's, an unknown context and a removed one
// answer no.
func TestNamesFromTable(t *testing.T) {
	ctx := testContext("c")
	v := New(des.NewEngine(), &simulator.DESLauncher{})
	if err := v.AddContext(ctx, "LRU", nil); err != nil {
		t.Fatal(err)
	}
	file := []byte(ctx.Filename(7))
	c, f, step, ok := v.Names([]byte("c"), file)
	if !ok || c != ctx.Name || f != ctx.Filename(7) || step != 7 {
		t.Fatalf("Names(c, %s) = %q, %q, %d, %v", file, c, f, step, ok)
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(100, func() { _, _, _, _ = v.Names([]byte("c"), file) }); a != 0 {
			t.Errorf("Names of a tabled step allocates %v times, want 0", a)
		}
	}
	for _, q := range [][2]string{{"d", string(file)}, {"c", "c_out_7.nc"}, {"c", ctx.Filename(101)}} {
		if c, f, _, ok := v.Names([]byte(q[0]), []byte(q[1])); ok {
			t.Errorf("Names(%s, %s) = %q, %q; want no", q[0], q[1], c, f)
		}
	}
	if err := v.RemoveContext("c"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := v.Names([]byte("c"), file); ok {
		t.Error("a removed context still names its steps")
	}
}

// Readers resolve names while the context registry changes under them —
// each session's read loop calls Names while the control plane adds and
// removes contexts — and first touches of the name table's chunks race
// each other: every answer is right or no.
func TestNamesConcurrentWithRegistry(t *testing.T) {
	v := New(des.NewEngine(), &simulator.DESLauncher{})
	ctx := testContext("c")
	if err := v.AddContext(ctx, "LRU", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= ctx.Grid.NumOutputSteps(); i++ {
				step := (i+25*w)%ctx.Grid.NumOutputSteps() + 1
				want := ctx.Filename(step)
				if c, f, s, ok := v.Names([]byte("c"), []byte(want)); !ok || c != "c" || f != want || s != step {
					t.Errorf("Names(c, %s) = %q, %q, %d, %v", want, c, f, s, ok)
				}
				if c, f, s, ok := v.Names([]byte("d"), []byte("d_out_00000003.nc")); ok && (c != "d" || f != "d_out_00000003.nc" || s != 3) {
					t.Errorf("Names(d, d_out_00000003.nc) = %q, %q", c, f)
				}
			}
		}()
	}
	for range 50 {
		if err := v.AddContext(testContext("d"), "LRU", nil); err != nil {
			t.Fatal(err)
		}
		if err := v.RemoveContext("d"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// usedBytes is the total size of the files in a storage area.
func usedBytes(area vfs.FS) int64 {
	var n int64
	for _, name := range area.List() {
		s, _ := area.Size(name)
		n += s
	}
	return n
}
