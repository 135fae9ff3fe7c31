package server

import (
	"testing"
	"time"

	"simfs/internal/model"
	"simfs/internal/netproto"
)

// TestNameErrorContract pins what a binary session is answered when a
// request names a file the daemon cannot serve: the code and the text,
// for each op that takes a context and file names. The daemon resolves a
// request's names against the context's own name table, so a name that
// is not exactly a tabled step must still reach core and be answered
// there, word for word as before.
func TestNameErrorContract(t *testing.T) {
	fx := newWatchFixture(t, nil)
	// Each case's answers to open, release, estwait and a one-file
	// subscribe; "ok" is a plain success.
	cases := []struct {
		what, ctx, file string
		want            [4]string
	}{
		{"unknown context", "nope", "clim_out_00000002.nc", [4]string{
			`no_such_context: core: unknown context "nope"`,
			`no_such_context: core: unknown context "nope"`,
			`no_such_context: core: unknown context "nope"`,
			`no_such_context: core: unknown context "nope"`}},
		{"wrong prefix", "clim", "climb_out_00000002.nc", [4]string{
			`bad_request: core: invalid request: model: "climb_out_00000002.nc" does not match naming convention "clim_out_"*".nc"`,
			`bad_request: core: invalid request: model: "climb_out_00000002.nc" does not match naming convention "clim_out_"*".nc"`,
			`bad_request: core: invalid request: model: "climb_out_00000002.nc" does not match naming convention "clim_out_"*".nc"`,
			`bad_request: core: invalid request: model: "climb_out_00000002.nc" does not match naming convention "clim_out_"*".nc"`}},
		{"short padding", "clim", "clim_out_2.nc", [4]string{
			`bad_request: core: invalid request: model: "clim_out_2.nc" has non-canonical key "2" (want digits, zero-padded to 8)`,
			`bad_request: core: invalid request: model: "clim_out_2.nc" has non-canonical key "2" (want digits, zero-padded to 8)`,
			`bad_request: core: invalid request: model: "clim_out_2.nc" has non-canonical key "2" (want digits, zero-padded to 8)`,
			`bad_request: core: invalid request: model: "clim_out_2.nc" has non-canonical key "2" (want digits, zero-padded to 8)`}},
		{"outside the timeline", "clim", "clim_out_00000065.nc", [4]string{
			`bad_request: core: invalid request: "clim_out_00000065.nc" is outside the simulated timeline`,
			`bad_request: core: invalid request: release of unreferenced file "clim_out_00000065.nc"`,
			`ok`,
			`bad_request: core: invalid request: "clim_out_00000065.nc" is outside the simulated timeline`}},
		{"a step of nine digits", "clim", "clim_out_100000000.nc", [4]string{
			`bad_request: core: invalid request: "clim_out_100000000.nc" is outside the simulated timeline`,
			`bad_request: core: invalid request: release of unreferenced file "clim_out_100000000.nc"`,
			`ok`,
			`bad_request: core: invalid request: "clim_out_100000000.nc" is outside the simulated timeline`}},
	}
	for _, c := range cases {
		fx.expectAnswers(c.what, c.ctx, c.file, c.want)
	}

	// A context deregistered and registered again under another prefix,
	// on the same session: the old prefix names nothing any more, the new
	// one is served.
	def := func(prefix string) *model.Context {
		return &model.Context{
			Name: "renamed", FilePrefix: prefix, FileSuffix: ".nc",
			Grid:        model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 16},
			OutputBytes: 64, RestartBytes: 64, Tau: time.Millisecond, Alpha: time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 2, NoPrefetch: true,
		}
	}
	fx.admin(netproto.OpCtxRegister, netproto.CtxRegisterBody{Context: def("old_"), Policy: "LRU"})
	// No open: it would start a re-simulation, and a live one holds the
	// deregistration off.
	fx.expectAnswers("the first prefix", "renamed", "old_00000003.nc", [4]string{
		`skip`,
		`bad_request: core: invalid request: release of unreferenced file "old_00000003.nc"`,
		`ok`,
		`skip`})
	fx.admin(netproto.OpCtxDeregister, netproto.CtxBody{Context: "renamed"})
	fx.admin(netproto.OpCtxRegister, netproto.CtxRegisterBody{Context: def("new_"), Policy: "LRU"})
	fx.expectAnswers("the deregistered prefix", "renamed", "old_00000003.nc", [4]string{
		`bad_request: core: invalid request: model: "old_00000003.nc" does not match naming convention "new_"*".nc"`,
		`bad_request: core: invalid request: model: "old_00000003.nc" does not match naming convention "new_"*".nc"`,
		`bad_request: core: invalid request: model: "old_00000003.nc" does not match naming convention "new_"*".nc"`,
		`bad_request: core: invalid request: model: "old_00000003.nc" does not match naming convention "new_"*".nc"`})

	served := netproto.FileBody{Context: "renamed", File: "new_00000003.nc"}
	id := fx.send(netproto.OpOpen, served)
	if _, resp := fx.until(id, func(netproto.Response) bool { return true }); !resp.OK || resp.Available {
		t.Fatalf("open under the new prefix: %+v, want a miss", resp)
	}
	fx.missed[id] = true
	if _, n := fx.notice(id); !n.OK || !n.Ready || !n.Done {
		t.Fatalf("notice of the open under the new prefix: %+v", n)
	}
	if resp := fx.call(netproto.OpEstWait, served); !resp.OK {
		t.Errorf("estwait under the new prefix: %+v", resp)
	}
	if frames := fx.stream(fx.send(netproto.OpSubscribe, netproto.FilesBody{Context: served.Context, Files: []string{served.File}})); len(frames) != 2 ||
		!frames[0].Ready || frames[0].File != served.File || !frames[1].OK || !frames[1].Done {
		t.Errorf("subscribe under the new prefix: %v", sigs(frames))
	}
	if resp := fx.call(netproto.OpRelease, served); !resp.OK {
		t.Errorf("release under the new prefix: %+v", resp)
	}
	if err := fx.st.V.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// expectAnswers sends open, release, estwait and a one-file subscribe of
// file in context ctx, in that order, and checks each first answer
// against want: "ok", "skip" (not sent), or "code: text" of a terminal
// failure.
func (fx *watchFixture) expectAnswers(what, ctx, file string, want [4]string) {
	fx.t.Helper()
	for i, op := range []string{netproto.OpOpen, netproto.OpRelease, netproto.OpEstWait, netproto.OpSubscribe} {
		if want[i] == "skip" {
			continue
		}
		var body any = netproto.FileBody{Context: ctx, File: file}
		if op == netproto.OpSubscribe {
			body = netproto.FilesBody{Context: ctx, Files: []string{file}}
		}
		resp := fx.call(op, body)
		got := "ok"
		if !resp.OK {
			got = string(resp.Code) + ": " + resp.Err
			if !resp.Terminal() {
				got += " (not terminal)"
			}
		}
		if got != want[i] {
			fx.t.Errorf("%s: %s %s/%s answered %q, want %q", what, op, ctx, file, got, want[i])
		}
	}
}

// admin round-trips a control-plane request that must succeed.
func (fx *watchFixture) admin(op string, body any) {
	fx.t.Helper()
	if resp := fx.call(op, body); !resp.OK {
		fx.t.Fatalf("%s: %+v", op, resp)
	}
}
