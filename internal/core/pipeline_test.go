package core

import (
	"testing"
	"time"

	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/notify"
)

// pipelinePair returns a coarse→fine context pair on one harness; tweak
// adjusts the contexts before they are registered.
func pipelinePair(t *testing.T, tweak ...func(coarse, fine *model.Context)) (*harness, *model.Context, *model.Context) {
	t.Helper()
	coarse := &model.Context{
		Name:               "coarse",
		Grid:               model.Grid{DeltaD: 4, DeltaR: 16, Timesteps: 128},
		OutputBytes:        1,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
		NoPrefetch:         true,
	}
	coarse.ApplyDefaults()
	fine := &model.Context{
		Name:               "fine",
		Grid:               model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 128},
		OutputBytes:        1,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
		Upstream:           "coarse",
		NoPrefetch:         true,
	}
	fine.ApplyDefaults()
	for _, f := range tweak {
		f(coarse, fine)
	}
	h := newHarness(t, coarse, fine)
	return h, coarse, fine
}

func TestPipelineMissCascades(t *testing.T) {
	h, coarse, fine := pipelinePair(t)
	file := fine.Filename(20) // interval (16,24] needs coarse steps 5..6
	var readyAt time.Duration
	res, err := openAwait(h.v, "a1", "fine", file, func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("pipeline wait failed: %s", st.Err)
		}
		readyAt = h.eng.Now()
	})
	if err != nil || res.Available || !res.Awaited {
		t.Fatalf("open: %+v, %v", res, err)
	}
	h.eng.Run(0)
	cs, _ := h.v.Stats("coarse")
	fs, _ := h.v.Stats("fine")
	if cs.Restarts == 0 {
		t.Fatal("coarse stage never re-simulated")
	}
	if fs.Restarts != 1 {
		t.Fatalf("fine restarts = %d", fs.Restarts)
	}
	// The fine simulation could only start after the coarse input
	// finished: the coarse run needs ≥ α + n·τ before the fine α starts.
	if readyAt <= coarse.Alpha+fine.Alpha {
		t.Errorf("fine output at %v: impossibly early for a cascaded pipeline", readyAt)
	}
}

func TestPipelineReusesResidentUpstream(t *testing.T) {
	h, _, fine := pipelinePair(t)
	// Preload all coarse outputs: the fine re-simulation should launch
	// immediately without any coarse restart.
	all := make([]int, 32)
	for i := range all {
		all[i] = i + 1
	}
	if err := h.v.Preload("coarse", all); err != nil {
		t.Fatal(err)
	}
	h.v.Open("a1", "fine", fine.Filename(20))
	h.eng.Run(0)
	cs, _ := h.v.Stats("coarse")
	if cs.Restarts != 0 {
		t.Errorf("coarse restarts = %d, want 0 (input resident)", cs.Restarts)
	}
	fs, _ := h.v.Stats("fine")
	if fs.StepsProduced == 0 {
		t.Error("fine stage produced nothing")
	}
}

func TestPipelineUpstreamPinnedDuringFineResim(t *testing.T) {
	// Tiny coarse storage area: 2 steps. The fine re-simulation needs
	// coarse steps 5..6; they must stay unevictable until it finishes —
	// also when a second coarse simulation produces them again meanwhile.
	h, coarse, fine := pipelinePair(t, func(coarse, _ *model.Context) { coarse.MaxCacheBytes = 2 })
	resident := func(step int) bool {
		t.Helper()
		r, _, err := h.v.FileState("coarse", coarse.Filename(step))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// t=0: fine 17..24 parks on coarse 5..6; coarse run A produces 5..8
	// at t=3..6 s. The fine run launches at 4 s and ends at 14 s.
	done := false
	openAwait(h.v, "a1", "fine", fine.Filename(20), func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("fine wait: %s", st.Err)
		}
		done = true
	})
	// 7 and 8 arrive into a full area whose residents 5 and 6 are
	// referenced: 8 can only push out 7.
	h.eng.RunUntil(6500 * time.Millisecond)
	if !resident(5) || !resident(6) || resident(7) {
		t.Fatalf("at 6.5s resident(5,6,7) = %v,%v,%v, want true,true,false", resident(5), resident(6), resident(7))
	}
	// Another analysis misses on 7: coarse run B produces 5..8 again, 5
	// and 6 while the fine run still holds them.
	h.v.Open("a2", "coarse", coarse.Filename(7))
	h.eng.RunUntil(13 * time.Second)
	if cs, _ := h.v.Stats("coarse"); cs.Restarts != 2 {
		t.Fatalf("coarse restarts = %d, want the two overlapping runs", cs.Restarts)
	}
	if !resident(5) || !resident(6) {
		t.Fatal("coarse inputs evicted under the running fine re-simulation")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	if !done {
		t.Fatal("fine output never produced")
	}
	// The fine run returned its one reference per input: only a2's open
	// of 7 is left, and 5..6 wash out like any unreferenced step.
	ucs, _ := h.v.shardOf("coarse")
	if n := ucs.referenced(); n != 1 || ucs.step(7).refs != 1 {
		t.Fatalf("coarse refs after the pipeline drained: %d steps, step 7 %d times; want only step 7 once", n, ucs.step(7).refs)
	}
	h.v.Open("a2", "coarse", coarse.Filename(10))
	h.eng.Run(0)
	if resident(5) || resident(6) {
		t.Error("coarse inputs still resident after release and four newer steps")
	}
}

func TestPipelineUpstreamFailurePropagates(t *testing.T) {
	h, _, fine := pipelinePair(t)
	h.l.FailAt = faults.NewSimPlan().WithEvery(1).FailAt // every simulation crashes halfway through its range
	// Fine step 30 re-simulates over (24,32], needing coarse steps 7..8.
	// The coarse re-simulation (producing 5..8) crashes after step 6, so
	// the pipeline input never materializes.
	file := fine.Filename(30)
	var st *notify.Event
	openAwait(h.v, "a1", "fine", file, func(s notify.Event) { st = &s })
	h.eng.Run(0)
	if st == nil {
		t.Fatal("waiter never notified")
	}
	if st.Err == "" {
		t.Error("upstream failure should propagate an error status")
	}
}

func TestNeededUpstreamSteps(t *testing.T) {
	down := model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 128}
	up := model.Grid{DeltaD: 4, DeltaR: 16, Timesteps: 128}
	// Fine outputs 17..24 re-simulate over timesteps (16, 24]; upstream
	// steps covering (16,24] at Δd=4 are steps 5 and 6.
	steps := neededUpstreamSteps(down, up, 17, 24)
	if len(steps) != 2 || steps[0] != 5 || steps[1] != 6 {
		t.Errorf("steps = %v, want [5 6]", steps)
	}
	// Clamped at the upstream timeline end.
	steps = neededUpstreamSteps(down, up, 121, 128)
	for _, s := range steps {
		if s > up.NumOutputSteps() {
			t.Errorf("step %d beyond upstream timeline", s)
		}
	}
}
