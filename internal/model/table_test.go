package model

import (
	"math/rand"
	"testing"
)

// The two shapes of entry the step tables hold: core's per-step ledger,
// which holds no pointers, and a cache policy's node, threaded through
// intrusive lists.
type (
	ledgerEntry struct {
		owner    int64
		refs     int32
		promised bool
	}
	linkedEntry struct {
		key        int
		prev, next *linkedEntry
		size       int64
	}
)

// A table agrees with a map wherever steps land: above, below and inside
// the chunks already written. All yields exactly the written chunks'
// steps in order, and Reset zeroes them.
func TestTableWidens(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		testTableWidens(t, func(e *ledgerEntry) *int64 { return &e.owner })
	})
	t.Run("linked", func(t *testing.T) {
		testTableWidens(t, func(e *linkedEntry) *int64 { return &e.size })
	})
}

func testTableWidens[T any](t *testing.T, val func(*T) *int64) {
	var tab Table[T]
	want := map[int]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		step := rng.Intn(64 * stepsPerChunk)
		if i%3 == 0 {
			step = MaxSteps - step
		}
		*val(tab.At(step)) = int64(i + 1)
		want[step] = int64(i + 1)
	}
	for step, v := range want {
		if e := tab.Get(step); e == nil || *val(e) != v {
			t.Fatalf("step %d: table holds %v, want %d", step, e, v)
		}
	}
	for _, step := range []int{-1, MaxSteps + stepsPerChunk, 64*stepsPerChunk + 1} {
		if e := tab.Get(step); e != nil && *val(e) != 0 {
			t.Errorf("step %d, never written, holds %d", step, *val(e))
		}
	}
	prev, seen := -1, 0
	for step, e := range tab.All {
		if step <= prev {
			t.Fatalf("All yielded step %d after %d", step, prev)
		}
		if e != tab.Get(step) {
			t.Fatalf("All yielded another entry for step %d than Get", step)
		}
		if *val(e) != want[step] {
			t.Fatalf("All yielded %d for step %d, want %d", *val(e), step, want[step])
		}
		if *val(e) != 0 {
			seen++
		}
		prev = step
	}
	if seen != len(want) {
		t.Errorf("All yielded %d written steps, want %d", seen, len(want))
	}
	tab.Reset()
	for step := range want {
		if e := tab.Get(step); e == nil || *val(e) != 0 {
			t.Fatalf("step %d after Reset: %v, want a zeroed entry in a kept chunk", step, e)
		}
	}
}
