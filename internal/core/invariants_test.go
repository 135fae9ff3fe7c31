package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"simfs/internal/des"
	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// fuzzInvariants drives the Virtualizer with random client behavior —
// opens, waits, releases, guided prefetches, direction flips —
// interleaved with engine progress, auditing CheckInvariants after every
// step. It returns nil when the run stayed consistent.
func fuzzInvariants(t *testing.T, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ctx := &model.Context{
		Name:               "fuzz",
		Grid:               model.Grid{DeltaD: 1 + int(seed&1)*2, DeltaR: 8, Timesteps: 256},
		OutputBytes:        1,
		MaxCacheBytes:      int64(8 + rng.Intn(32)),
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               1 + rng.Intn(4),
	}
	ctx.ApplyDefaults()
	eng, v := newFuzzStack(t, ctx, rng.Intn(3) == 0)

	clients := []string{"c0", "c1", "c2"}
	held := map[string][]string{}
	no := ctx.Grid.NumOutputSteps()

	for i := 0; i < 150; i++ {
		client := clients[rng.Intn(len(clients))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // open (maybe wait)
			step := rng.Intn(no) + 1
			file := ctx.Filename(step)
			var err error
			if rng.Intn(2) == 0 {
				_, err = openAwait(v, client, "fuzz", file, func(notify.Event) {})
			} else {
				_, err = v.Open(client, "fuzz", file)
			}
			if err != nil {
				return fmt.Errorf("step %d: open: %v", i, err)
			}
			held[client] = append(held[client], file)
		case 4, 5: // release something held
			hs := held[client]
			if len(hs) > 0 {
				file := hs[len(hs)-1]
				held[client] = hs[:len(hs)-1]
				if err := v.Release(client, "fuzz", file); err != nil {
					return fmt.Errorf("step %d: release: %v", i, err)
				}
			}
		case 6: // guided prefetch hint
			step := rng.Intn(no) + 1
			if _, err := v.GuidedPrefetch(client, "fuzz", []string{ctx.Filename(step)}); err != nil {
				return fmt.Errorf("step %d: prefetch: %v", i, err)
			}
		case 7, 8: // let simulations progress
			for j := 0; j < rng.Intn(20)+1; j++ {
				if !eng.Step() {
					break
				}
			}
		case 9: // audit mid-flight
		}
		if err := v.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d: %v", i, err)
		}
	}
	// Drain and re-audit.
	if !eng.Run(2_000_000) {
		return fmt.Errorf("engine did not drain")
	}
	if err := v.CheckInvariants(); err != nil {
		return fmt.Errorf("final: %v", err)
	}
	return nil
}

// TestInvariantsUnderRandomWorkload fuzzes with fresh random seeds.
func TestInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		if err := fuzzInvariants(t, seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInvariantsRegressionSeeds replays seeds that once found bugs.
func TestInvariantsRegressionSeeds(t *testing.T) {
	seeds := []int64{
		// Overlapping re-simulations: a step produced by a non-owning
		// simulation stayed promised while resident.
		5624992012996912267,
	}
	for _, seed := range seeds {
		if err := fuzzInvariants(t, seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// newFuzzStack builds a harness whose launcher optionally injects
// failures.
func newFuzzStack(t *testing.T, ctx *model.Context, failures bool) (*des.Engine, *Virtualizer) {
	h := newHarness(t, ctx)
	if failures {
		h.l.FailAt = faults.NewSimPlan().WithEvery(3).FailAt
	}
	return h.eng, h.v
}

func TestCheckInvariantsCleanState(t *testing.T) {
	ctx := testContext("inv")
	h := newHarness(t, ctx)
	if err := h.v.CheckInvariants(); err != nil {
		t.Errorf("fresh virtualizer violates invariants: %v", err)
	}
	h.v.Preload("inv", []int{1, 2, 3})
	h.v.Open("a1", "inv", ctx.Filename(2))
	h.v.Open("a1", "inv", ctx.Filename(30))
	if err := h.v.CheckInvariants(); err != nil {
		t.Errorf("mid-flight state violates invariants: %v", err)
	}
	h.eng.Run(0)
	if err := h.v.CheckInvariants(); err != nil {
		t.Errorf("drained state violates invariants: %v", err)
	}
}

// TestInvariantPendingMarkerNeedsOwner is the shape of the stranded-
// watcher bug PR 21 fixed in retryLaunch: a job leaves the scheduler, its
// launch never happens, and nobody clears or fails the pending markers
// it left on the shard — a promise no simulation will keep. Clause 2
// must see it.
func TestInvariantPendingMarkerNeedsOwner(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 1
	h := schedHarness(t, sched.Config{Priorities: true}, ctx)
	h.v.Open("a1", "c", ctx.Filename(2)) // takes the one slot
	if n, err := h.v.GuidedPrefetch("a2", "c", []string{ctx.Filename(6)}); err != nil || n != 0 {
		t.Fatalf("GuidedPrefetch = %d, %v; want the hint queued behind smax", n, err)
	}
	if _, promised, _ := h.v.FileState("c", ctx.Filename(6)); !promised {
		t.Fatal("queued hint left no pending marker")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatalf("a marker with its job queued is owned: %v", err)
	}
	// The job goes, behind core's back; markers and watchers stay.
	if gone := h.v.sched.CancelClient("c", "a2", nil); len(gone) != 1 {
		t.Fatalf("canceled %d jobs, want the queued hint", len(gone))
	}
	err := h.v.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "pending with no queued job") {
		t.Fatalf("CheckInvariants = %v, want the ownerless pending marker reported", err)
	}
}

// The audit reads the step table itself: a corrupted entry is reported,
// not skipped because nothing else points at the step.
func TestInvariantsSeeCorruptStepTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(st *stepState)
		want    string
	}{
		{"negative refcount", func(st *stepState) { st.refs = -1 }, "step 9 has negative refcount -1"},
		{"unknown owner", func(st *stepState) { st.owner, st.promised = 12345, true }, "step 9 promised by unknown simulation 12345"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testContext("c")
			h := newHarness(t, ctx)
			h.v.Open("a1", "c", ctx.Filename(2))
			if err := h.v.CheckInvariants(); err != nil {
				t.Fatalf("before the corruption: %v", err)
			}
			cs, _ := h.v.shardOf("c")
			tc.corrupt(cs.steps.At(9))
			if err := h.v.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want %q", err, tc.want)
			}
		})
	}
}
