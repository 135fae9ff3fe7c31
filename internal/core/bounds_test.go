package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"simfs/internal/model"
	"simfs/internal/notify"
)

// TestStepNameBounds pins what every entry point that takes a file name
// answers for a name that parses to a step off the simulated timeline:
// step 0, the step just past the last one, and a nine-digit step. Some
// entry points refuse such names up front; the rest must answer as for
// a step nobody opened, never index past the shard's per-step state.
func TestStepNameBounds(t *testing.T) {
	ctx := testContext("c") // 100 output steps
	h := newHarness(t, ctx)
	v := h.v
	owner := notify.NewOwner(func(uint64, notify.Event) {})
	stream := notify.NewStreamOwner(func(uint64, notify.Event) {})

	// class renders an error as the sentinel it wraps plus its text.
	class := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		for _, s := range []struct {
			name string
			err  error
		}{
			{"ErrInvalid", ErrInvalid},
			{"ErrNotProduced", ErrNotProduced},
			{"ErrUnknownContext", ErrUnknownContext},
			{"ErrDraining", ErrDraining},
			{"ErrBusy", ErrBusy},
		} {
			if errors.Is(err, s.err) {
				return s.name + ": " + err.Error()
			}
		}
		return "unclassified: " + err.Error()
	}

	for _, tc := range []struct {
		step int
		want []string
	}{
		{0, []string{
			`Open {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`OpenAwait {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`Release ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`EstWait 0s ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`Watch [] ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`GuidedPrefetch 0 ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`Bitrep false ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`RegisterChecksum ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
			`Bitrep false ErrInvalid: core: invalid request: model: "c_out_00000000.nc" has non-positive key 0`,
		}},
		{101, []string{
			`Open {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: "c_out_00000101.nc" is outside the simulated timeline`,
			`OpenAwait {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: "c_out_00000101.nc" is outside the simulated timeline`,
			`Release ErrInvalid: core: invalid request: release of unreferenced file "c_out_00000101.nc"`,
			`EstWait 0s <nil>`,
			`Watch [] ErrInvalid: core: invalid request: "c_out_00000101.nc" is outside the simulated timeline`,
			`GuidedPrefetch 0 ErrInvalid: core: invalid request: "c_out_00000101.nc" is outside the simulated timeline`,
			`Bitrep false ErrInvalid: core: invalid request: no registered checksum for "c_out_00000101.nc" (run the checksum utility after the initial simulation)`,
			`RegisterChecksum <nil>`,
			`Bitrep false <nil>`,
		}},
		{123456789, []string{
			`Open {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: "c_out_123456789.nc" is outside the simulated timeline`,
			`OpenAwait {Available:false EstWait:0s Awaited:false} ErrInvalid: core: invalid request: "c_out_123456789.nc" is outside the simulated timeline`,
			`Release ErrInvalid: core: invalid request: release of unreferenced file "c_out_123456789.nc"`,
			`EstWait 0s <nil>`,
			`Watch [] ErrInvalid: core: invalid request: "c_out_123456789.nc" is outside the simulated timeline`,
			`GuidedPrefetch 0 ErrInvalid: core: invalid request: "c_out_123456789.nc" is outside the simulated timeline`,
			`Bitrep false ErrInvalid: core: invalid request: no registered checksum for "c_out_123456789.nc" (run the checksum utility after the initial simulation)`,
			`RegisterChecksum <nil>`,
			`Bitrep false <nil>`,
		}},
	} {
		name := ctx.Filename(tc.step)
		var got []string
		add := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

		r, err := v.Open("a", "c", name)
		add("Open %+v %s", r, class(err))
		r, err = v.OpenAwait("a", "c", name, owner, 7)
		add("OpenAwait %+v %s", r, class(err))
		err = v.Release("a", "c", name)
		add("Release %s", class(err))
		d, err := v.EstWait("c", name)
		add("EstWait %v %s", d, class(err))
		files, err := v.Watch("a", "c", []string{name}, stream, 9)
		add("Watch %+v %s", files, class(err))
		n, err := v.GuidedPrefetch("a", "c", []string{name})
		add("GuidedPrefetch %d %s", n, class(err))
		same, err := v.Bitrep("c", name, []byte("x"))
		add("Bitrep %v %s", same, class(err))
		err = v.RegisterChecksum("c", name, 42)
		add("RegisterChecksum %s", class(err))
		same, err = v.Bitrep("c", name, []byte("x"))
		add("Bitrep %v %s", same, class(err))

		if len(got) != len(tc.want) {
			t.Fatalf("step %d: %d answers, want %d", tc.step, len(got), len(tc.want))
		}
		for i, g := range got {
			if g != tc.want[i] {
				t.Errorf("step %d:\n got %s\nwant %s", tc.step, g, tc.want[i])
			}
		}
		if err := v.CheckInvariants(); err != nil {
			t.Errorf("step %d: %v", tc.step, err)
		}
	}
	if w := v.Hub().Waiting(notify.Topic{Context: "c", Step: 101}); w {
		t.Error("a waiter sits on a step past the timeline")
	}
}

// A timeline's length arrives off the wire (ctx-register). One longer
// than a step table holds is refused, without a panic; one within the
// bound costs nothing of the step table when registered, and a step's
// chunk and one directory slot when the step is first written.
func TestStepTableSize(t *testing.T) {
	h := newHarness(t)
	for _, steps := range []int{math.MaxInt, 1_000_000_000, model.MaxSteps + 1} {
		c := testContext(fmt.Sprint("long", steps))
		c.Grid.Timesteps = steps
		if err := h.v.AddContext(c, "DCL", nil); !errors.Is(err, ErrInvalid) {
			t.Errorf("AddContext with %d output steps = %v, want ErrInvalid", steps, err)
		}
	}
	c := testContext("long")
	c.Grid.Timesteps = 150_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := h.v.AddContext(c, "DCL", nil); err != nil {
		t.Fatal(err)
	}
	last := c.Filename(c.Grid.NumOutputSteps())
	if _, err := h.v.Open("a", "long", last); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	runtime.ReadMemStats(&after)
	// The context's name table is 3.2 MB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("registering a %d-step context and opening its last step allocated %d bytes", c.Grid.NumOutputSteps(), grew)
	}
	cs, _ := h.v.shardOf("long")
	if n := reflect.ValueOf(&cs.steps).Elem().FieldByName("chunks").Len(); n != 1 {
		t.Errorf("step table directory holds %d slots after opening the last step, want 1", n)
	}
	if resident, _, err := h.v.FileState("long", last); err != nil || !resident {
		t.Errorf("last step resident = %v (%v), want true", resident, err)
	}
	if err := h.v.Release("a", "long", last); err != nil {
		t.Error(err)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A reference count that reaches its limit stays there: one more open
// neither wraps it negative nor unpins the step, and a release leaves
// it pinned.
func TestRefCountSaturates(t *testing.T) {
	ctx := testContext("c") // room for 40 steps
	h := newHarness(t, ctx)
	if err := h.v.Preload("c", []int{5}); err != nil {
		t.Fatal(err)
	}
	cs, _ := h.v.shardOf("c")
	cs.steps.At(5).refs = math.MaxInt32
	name := ctx.Filename(5)
	if res, err := h.v.Open("a", "c", name); err != nil || !res.Available {
		t.Fatalf("Open = %+v, %v; want a hit", res, err)
	}
	if err := h.v.Release("a", "c", name); err != nil {
		t.Fatal(err)
	}
	if got := cs.step(5).refs; got != math.MaxInt32 {
		t.Fatalf("refs = %d, want %d", got, math.MaxInt32)
	}
	var others []int
	for s := 6; s <= 50; s++ {
		others = append(others, s)
	}
	if err := h.v.Preload("c", others); err != nil {
		t.Fatal(err)
	}
	if resident, _, _ := h.v.FileState("c", name); !resident {
		t.Error("a saturated step was evicted")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
