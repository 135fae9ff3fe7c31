package fed_test

import (
	"testing"

	"simfs/internal/dvlib"
)

// TestRouterHopAllocBudget pins what the router hop adds to a sync
// open/close of a resident file — one request in flight, the way the
// hit_routed_sync workload drives it — by running the same pairs
// through a router and straight at the daemon. AllocsPerRun counts
// process-wide mallocs, so the daemon's and the router's goroutines are
// included. The hop adds nothing: the open and the release cross the
// router as bytes, copied as they are onto the peer link and back onto
// the client's connection.
//
// A pair allocates nothing on either path: dvlib's call record — the
// pending-table entry, the response slot and what the caller waits on —
// comes from a pool and goes back once its answer is read, and the
// daemon takes each request's context and file name from the
// context's name table instead of copying them off the wire (see
// server.TestHitPathAllocBudget).
func TestRouterHopAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	const name = "hop"
	st, addr := newFedStack(t, name, nil)
	_, raddr := startRouter(t, addr)
	steps := make([]int, 64)
	for i := range steps {
		steps[i] = i + 1
	}
	if err := st.V.Preload(name, steps); err != nil {
		t.Fatal(err)
	}

	perPair := func(addr string) float64 {
		c, err := dvlib.Dial(addr, "budget")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, err := c.Init(name)
		if err != nil {
			t.Fatal(err)
		}
		// No constant stride, so the prefetch agent finds no trajectory
		// to follow (see server.TestHitPathAllocBudget).
		var files []string
		for _, step := range []int{7, 29, 3, 41, 18, 60, 11, 35, 2, 52, 24, 46, 9, 33, 15, 57} {
			files = append(files, ctx.Filename(step))
		}
		pairs := func() {
			for _, f := range files {
				if res, err := ctx.Open(f); err != nil || !res.Available {
					t.Fatalf("open %s = %+v, %v; want a hit", f, res, err)
				}
				if err := ctx.Close(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		pairs() // dials the router's peer link and grows every buffer once
		return testing.AllocsPerRun(50, pairs) / float64(len(files))
	}
	direct, routed := perPair(addr), perPair(raddr)
	t.Logf("%.2f allocations per open/close pair direct, %.2f through the router", direct, routed)
	if routed > direct+0.5 {
		t.Errorf("the router hop adds %.2f allocations per open/close pair (%.2f routed, %.2f direct), budget 0.5",
			routed-direct, routed, direct)
	}
}
