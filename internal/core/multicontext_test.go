package core

import (
	"testing"
	"time"

	"simfs/internal/model"
	"simfs/internal/notify"
)

// Multiple simulation contexts can coexist over the same timeline with
// different output granularities (paper Sec. II-A: "analyzing a coarser
// grain simulation output on a simulation context and then switch to
// finer grain on a different context"). Each context has its own cache,
// agents and simulations; one client may use several at once.
func TestMultipleContextsIndependentState(t *testing.T) {
	coarse := &model.Context{
		Name: "grain-coarse", Grid: model.Grid{DeltaD: 10, DeltaR: 40, Timesteps: 400},
		OutputBytes: 1, Tau: time.Second, Alpha: 2 * time.Second,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	coarse.ApplyDefaults()
	fine := &model.Context{
		Name: "grain-fine", Grid: model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 400},
		OutputBytes: 1, Tau: 250 * time.Millisecond, Alpha: time.Second,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	fine.ApplyDefaults()
	h := newHarness(t, coarse, fine)

	// Phase 1: the analysis browses the coarse output around t=200.
	var coarseDone, fineDone time.Duration
	h.v.Open("sci", "grain-coarse", coarse.Filename(20)) // timestep 200
	h.v.WaitFile("sci", "grain-coarse", coarse.Filename(20), func(st notify.Event) {
		coarseDone = h.eng.Now()
		// Phase 2: something interesting → switch to the fine context
		// around the same simulated time (timestep 200 = fine step 200).
		h.v.Open("sci", "grain-fine", fine.Filename(200))
		h.v.WaitFile("sci", "grain-fine", fine.Filename(200), func(st notify.Event) {
			fineDone = h.eng.Now()
		})
	})
	h.eng.Run(0)
	if coarseDone == 0 || fineDone == 0 {
		t.Fatal("context switch never completed")
	}
	if fineDone <= coarseDone {
		t.Error("fine context served before it was requested")
	}
	cs, _ := h.v.Stats("grain-coarse")
	fs, _ := h.v.Stats("grain-fine")
	if cs.Restarts != 1 || fs.Restarts != 1 {
		t.Errorf("restarts: coarse=%d fine=%d, want 1 each (independent simulations)",
			cs.Restarts, fs.Restarts)
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// The same file name resolves independently per context: caches must not
// bleed across contexts even with identical naming conventions.
func TestContextsDoNotShareCaches(t *testing.T) {
	a := testContext("iso-a")
	b := testContext("iso-b")
	// Force identical file names in both contexts.
	a.FilePrefix, b.FilePrefix = "same_", "same_"
	h := newHarness(t, a, b)
	h.v.Preload("iso-a", []int{5})
	res, err := h.v.Open("c", "iso-a", "same_00000005.nc")
	if err != nil || !res.Available {
		t.Fatalf("context a: %+v, %v", res, err)
	}
	res, err = h.v.Open("c", "iso-b", "same_00000005.nc")
	if err != nil {
		t.Fatal(err)
	}
	if res.Available {
		t.Error("context b served context a's file: caches must be isolated")
	}
}
