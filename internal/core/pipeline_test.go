package core

import (
	"testing"
	"time"

	"simfs/internal/faults"
	"simfs/internal/model"
)

// pipelinePair returns a coarse→fine context pair on one harness.
func pipelinePair(t *testing.T) (*harness, *model.Context, *model.Context) {
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
	h := newHarness(t, coarse, fine)
	return h, coarse, fine
}

func TestPipelineMissCascades(t *testing.T) {
	h, coarse, fine := pipelinePair(t)
	file := fine.Filename(20) // interval (16,24] needs coarse steps 5..6
	res, err := h.v.Open("a1", "fine", file)
	if err != nil || res.Available {
		t.Fatalf("open: %+v, %v", res, err)
	}
	var readyAt time.Duration
	h.v.WaitFile("a1", "fine", file, func(st Status) {
		if st.Err != "" {
			t.Errorf("pipeline wait failed: %s", st.Err)
		}
		readyAt = h.eng.Now()
	})
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
	h, coarse, fine := pipelinePair(t)
	// Tiny coarse cache: 2 entries. The fine re-simulation needs coarse
	// steps 5..6; they must stay pinned (unevictable) until it finishes.
	_ = coarse
	h.v.Open("a1", "fine", fine.Filename(20))
	// While the pipeline is resolving, flood the coarse cache via another
	// analysis to create eviction pressure.
	h.v.Open("a2", "coarse", coarse.Filename(10))
	h.v.Open("a2", "coarse", coarse.Filename(20))
	done := false
	h.v.WaitFile("a1", "fine", fine.Filename(20), func(st Status) {
		if st.Err != "" {
			t.Errorf("fine wait: %s", st.Err)
		}
		done = true
	})
	h.eng.Run(0)
	if !done {
		t.Fatal("fine output never produced")
	}
}

func TestPipelineUpstreamFailurePropagates(t *testing.T) {
	h, _, fine := pipelinePair(t)
	h.l.FailAt = faults.NewSimPlan().WithEvery(1).FailAt // every simulation crashes halfway through its range
	// Fine step 30 re-simulates over (24,32], needing coarse steps 7..8.
	// The coarse re-simulation (producing 5..8) crashes after step 6, so
	// the pipeline input never materializes.
	file := fine.Filename(30)
	h.v.Open("a1", "fine", file)
	var st *Status
	h.v.WaitFile("a1", "fine", file, func(s Status) { st = &s })
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
