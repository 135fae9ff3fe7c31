package server

import (
	"testing"

	"simfs/internal/dvlib"
)

// TestHitPathAllocBudget pins what an open/release pair of a resident
// file allocates end to end — client library, both directions of the
// wire, daemon session and core — driven the way the hit_pipelined
// workload drives it: a window of 16 OpenAsync, their Waits, 16
// ReleaseAsync, their Waits, over the binary codec on loopback.
// AllocsPerRun counts process-wide mallocs, so the daemon's goroutines
// are included.
//
// What a pair still allocates, by site:
//
//	2  dvlib OpenAsync/ReleaseAsync: the call handle, which is at once
//	   the pending-table entry, the response slot and what the caller
//	   waits on
//
// Everything else — envelopes, responses, frame headers, scratch
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
	const window = 16
	const budget = 2.0 + 1 // the sum above, plus one for whatever the runtime does meanwhile

	// Every step resident, as after an initial simulation that kept its
	// output: the prefetch agents find nothing to launch, so the daemon
	// does nothing but answer.
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
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	var files [window]string
	// No constant stride: a trajectory the prefetch agent recognizes makes
	// core scan its coverage on every open, which is core's cost, not the
	// wire's (the benchmark's clients draw steps from a Zipf law).
	for i, step := range [window]int{7, 29, 3, 41, 18, 60, 11, 35, 2, 52, 24, 46, 9, 33, 15, 57} {
		files[i] = ctx.Filename(step)
	}

	var opens [window]*dvlib.OpenCall
	var rels [window]*dvlib.ReleaseCall
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
	perPair := testing.AllocsPerRun(200, pairs) / window
	t.Logf("%.2f allocations per open/release pair", perPair)
	if perPair > budget {
		t.Errorf("%.2f allocations per open/release pair, budget %.1f", perPair, budget)
	}
}
