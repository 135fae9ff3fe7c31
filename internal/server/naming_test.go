package server

import (
	"testing"

	"simfs/internal/dvlib"
	"simfs/internal/netproto"
)

// TestNonCanonicalNameRefused: a step has one file name. A name that
// merely parses to the same number ("_2", "_+0000002") used to be
// served as that step — answered Available, booked as a miss, pinned
// under a key the cache does not hold — leaving a held file evictable
// and its release failing after the refcount dropped. Any client can
// send one, so it is refused on the wire as the client's mistake.
func TestNonCanonicalNameRefused(t *testing.T) {
	st, addr := testStack(t)
	c, err := dvlib.Dial(addr, "aliaser")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	canonical := ctx.Filename(2)
	if _, err := ctx.Open(canonical); err != nil {
		t.Fatal(err)
	}
	if err := ctx.WaitAvailable(canonical); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(canonical); err != nil {
		t.Fatal(err)
	}

	info := ctx.Info()
	for _, alias := range []string{
		info.FilePrefix + "2" + info.FileSuffix,
		info.FilePrefix + "+0000002" + info.FileSuffix,
		info.FilePrefix + "000000002" + info.FileSuffix,
	} {
		if _, err := ctx.Open(alias); dvlib.ErrCodeOf(err) != netproto.CodeBadRequest {
			t.Errorf("Open(%q) = %v, want a %s refusal", alias, err, netproto.CodeBadRequest)
		}
		if err := ctx.Close(alias); dvlib.ErrCodeOf(err) != netproto.CodeBadRequest {
			t.Errorf("Close(%q) = %v, want a %s refusal", alias, err, netproto.CodeBadRequest)
		}
	}

	before, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Open(canonical)
	if err != nil || !res.Available {
		t.Fatalf("Open(%q) = %+v, %v; want the resident file", canonical, res, err)
	}
	after, err := ctx.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("canonical open booked hits %d→%d, misses %d→%d; want one hit",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if err := st.V.CheckInvariants(); err != nil {
		t.Errorf("with the file held: %v", err)
	}
	if err := ctx.Close(canonical); err != nil {
		t.Error(err)
	}
	if err := st.V.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
