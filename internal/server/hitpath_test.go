package server

import (
	"testing"

	"simfs/internal/dvlib"
)

// TestHitPathAllocBudget pins what an open/release pair of a resident
// file allocates end to end — client library, both directions of the
// wire, daemon session and core — driven the way the hit_pipelined
// workload drives it: a hitWindow of 16 OpenAsync, their Waits, 16
// ReleaseAsync, their Waits, over the binary codec on loopback.
// AllocsPerRun counts process-wide mallocs, so the daemon's goroutines
// are included.
//
// What a pair still allocates, by site:
//
//	2  dvlib OpenAsync/ReleaseAsync: the 8-byte OpenCall/ReleaseCall
//	   handle, which points at the call's record until its Wait
//
// The record itself — the pending-table entry, the response slot and
// what the caller waits on — comes from a pool and goes back once Wait
// has read its answer. Everything else — envelopes, responses, frame headers, scratch
// buffers — is reused or lives on a stack, and the response of a hit
// carries no string. A call answered before its Wait draws no wake-up
// channel at all; one that parks draws a recycled one. A request's
// context and file name are not copied off the wire: the decoder takes
// both strings from the context's name table (core.Virtualizer.Names),
// with the step it parsed the name to, which core checks against the
// name and uses, so the name is parsed once and no name is formatted
// back. The session's held-reference ledger, one map keyed by context
// and file, keeps those strings.
func TestHitPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	const budget = 2.0 + 1 // the sum above, plus one for whatever the runtime does meanwhile
	ctx, files := hitClient(t)
	var err error
	var opens [hitWindow]*dvlib.OpenCall
	var rels [hitWindow]*dvlib.ReleaseCall
	pairs := func() {
		for i, f := range files {
			if opens[i], err = ctx.OpenAsync(f); err != nil {
				t.Fatal(err)
			}
		}
		for i := range opens {
			if res, err := opens[i].Wait(); err != nil || !res.Available {
				t.Fatalf("open %s = %+v, %v; want a hit", files[i], res, err)
			}
		}
		for i, f := range files {
			if rels[i], err = ctx.ReleaseAsync(f); err != nil {
				t.Fatal(err)
			}
		}
		for i := range rels {
			if err := rels[i].Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	perPair := testing.AllocsPerRun(200, pairs) / hitWindow
	t.Logf("%.2f allocations per open/release pair", perPair)
	if perPair > budget {
		t.Errorf("%.2f allocations per open/release pair, budget %.1f", perPair, budget)
	}
}

// TestSyncHitAllocBudget pins the same pair driven the way the
// hit_routed_sync workload drives it, without the router: a sync Open,
// then Close, one request in flight. Each call's record comes from a
// pool and goes back once its answer is read, and a sync call has no
// handle, so the pair allocates nothing.
func TestSyncHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	const budget = 0.0 + 1 // nothing, plus one for whatever the runtime does meanwhile
	ctx, files := hitClient(t)
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
	perPair := testing.AllocsPerRun(200, pairs) / hitWindow
	t.Logf("%.2f allocations per sync open/close pair", perPair)
	if perPair > budget {
		t.Errorf("%.2f allocations per sync open/close pair, budget %.1f", perPair, budget)
	}
}

// hitWindow is how many files a hit budget opens per run.
const hitWindow = 16

// hitClient serves a context whose every step is resident, as after an
// initial simulation that kept its output — the prefetch agents find
// nothing to launch, so the daemon does nothing but answer — and
// returns a client's handle on it with the hitWindow of files to open.
func hitClient(t *testing.T) (*dvlib.Context, [hitWindow]string) {
	t.Helper()
	st, addr := testStack(t)
	steps := make([]int, 64)
	for i := range steps {
		steps[i] = i + 1
	}
	if err := st.V.Preload("clim", steps); err != nil {
		t.Fatal(err)
	}
	c, err := dvlib.Dial(addr, "budget")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	var files [hitWindow]string
	// No constant stride: a trajectory the prefetch agent recognizes makes
	// core scan its coverage on every open, which is core's cost, not the
	// wire's (the benchmark's clients draw steps from a Zipf law).
	for i, step := range [hitWindow]int{7, 29, 3, 41, 18, 60, 11, 35, 2, 52, 24, 46, 9, 33, 15, 57} {
		files[i] = ctx.Filename(step)
	}
	return ctx, files
}
