package core

import (
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
	if got, want := area.UsedBytes(), ctx.MaxCacheBytes; got != want {
		t.Errorf("storage area holds %d bytes, want the cache's %d: victims were not removed", got, want)
	}
}
