package server

import (
	"io"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/sched"
)

// The open-notice contract: what a client observes on an open's own
// request ID, frame by frame. A hit or a refusal is answered once, with
// Done; a miss is answered at once without Done and later by exactly one
// terminal notice. Raw binary frames, as in TestWatchContract.

// slowSims makes every re-simulation sleep a minute before each step, so
// a test can act on one that is still running without gating it.
func slowSims(st *Stack) {
	ctx, _ := st.V.Context("clim")
	ctx.Tau = time.Minute
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func kills(t *testing.T, st *Stack) int64 {
	t.Helper()
	s, err := st.V.Stats("clim")
	if err != nil {
		t.Fatal(err)
	}
	return s.Kills
}

func TestOpenNoticeContract(t *testing.T) {
	row := func(name string, configure func(*Stack), run func(fx *watchFixture)) {
		t.Run(name, func(t *testing.T) {
			fx := newWatchFixture(t, configure)
			run(fx)
			if err := fx.st.V.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
	// answered checks the first answer of open id.
	answered := func(fx *watchFixture, id uint64, resp netproto.Response, want string) {
		fx.t.Helper()
		fx.expect("answer", []netproto.Response{resp}, id, want)
	}

	row("hit", nil, func(fx *watchFixture) {
		fx.produce(3)
		id, resp := fx.open(3)
		answered(fx, id, resp, "ok done")
		fx.expect("after the answer", fx.settled(), id)
	})

	row("refused", nil, func(fx *watchFixture) {
		id := fx.send(netproto.OpOpen, netproto.FileBody{Context: "nope", File: file(3)})
		fx.expect("answer", fx.stream(id), id, "no_such_context done")
	})

	row("ready after the answer", nil, func(fx *watchFixture) {
		fx.hold(5)
		id, resp := fx.open(6)
		answered(fx, id, resp, "ok")
		fx.expect("before production", fx.settled(), id)
		fx.release()
		other, n := fx.notice(id)
		fx.expect("after production", append(other, n), id, "ok ready done")
	})

	row("ready before the client waits", nil, func(fx *watchFixture) {
		id, _ := fx.open(6)
		// Nothing more is asked: the notice comes on its own.
		other, n := fx.notice(id)
		fx.expect("notice", append(other, n), id, "ok ready done")
	})

	row("failed from a quarantined interval", quarantining, func(fx *watchFixture) {
		fx.hold(5)
		id, _ := fx.open(6)
		fx.release()
		other, n := fx.notice(id)
		fx.expect("after the crash", append(other, n), id, "failed attempts=2 retry done")
		// The breaker is open now: a second open is refused outright.
		id, resp := fx.open(6)
		answered(fx, id, resp, "failed attempts=2 retry done")
		if fx.missed[id] {
			t.Errorf("refused open %d awaits a notice", id)
		}
	})

	row("re-simulation killed", slowSims, func(fx *watchFixture) {
		id, _ := fx.open(6)
		fx.st.Launcher.Kill(1) // the daemon's first launch, producing step 6
		other, n := fx.notice(id)
		fx.expect("after the kill", append(other, n), id, "failed done")
		if n.Err != "re-simulation killed" {
			t.Errorf("notice says %q, want re-simulation killed", n.Err)
		}
	})

	row("ridden through a retry", func(st *Stack) {
		st.Launcher.FailAt = faults.NewSimPlan().WithFailN("clim", 6, 1, 0).FailAt
		st.V.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 1})
	}, func(fx *watchFixture) {
		id, _ := fx.open(6)
		// The first launch crashes; its relaunch produces step 6.
		other, n := fx.notice(id)
		fx.expect("after the relaunch", append(other, n), id, "ok ready done")
		fx.expect("after the notice", fx.settled(), id)
		r, err := fx.st.V.Report("clim")
		if err != nil || r.Failures != 1 || r.Retries != 1 {
			t.Errorf("failures/retries = %d/%d (%v), want 1/1", r.Failures, r.Retries, err)
		}
	})

	row("ctx-deregister", func(st *Stack) {
		// Another context's simulation holds the one node, so the open's
		// demand job queues: no simulation of clim is live, yet step 6
		// stays promised with the notice waiting on it.
		nodes := 1
		if _, err := st.V.UpdateSchedConfig(sched.Patch{TotalNodes: &nodes}); err != nil {
			t.Fatal(err)
		}
		if err := st.RegisterContext(&model.Context{
			Name: "other", Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 64},
			OutputBytes: 512, RestartBytes: 256, Tau: 4 * time.Millisecond, Alpha: 8 * time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 4,
		}, "DCL", false); err != nil {
			t.Fatal(err)
		}
	}, func(fx *watchFixture) {
		fx.hold(2)
		if _, err := fx.st.V.Open("holder", "other", model.StepFilename("other_out_", 2, ".nc")); err != nil {
			t.Fatal(err)
		}
		id, _ := fx.open(6)
		if q := fx.st.V.SchedStats().QueueDepth; q != 1 {
			t.Fatalf("queue depth %d, want the open's node-blocked job", q)
		}
		if resp := fx.call(netproto.OpRelease, netproto.FileBody{Context: "clim", File: file(6)}); !resp.OK {
			t.Fatalf("release: %+v", resp)
		}
		if resp := fx.call(netproto.OpDrain, netproto.CtxBody{Context: "clim"}); !resp.OK {
			t.Fatalf("drain: %+v", resp)
		}
		if resp := fx.call(netproto.OpCtxDeregister, netproto.CtxBody{Context: "clim"}); !resp.OK {
			t.Fatalf("ctx-deregister: %+v", resp)
		}
		other, n := fx.notice(id)
		fx.expect("after deregistration", append(other, n), id, "failed done")
		if n.Err != "context deregistered" {
			t.Errorf("notice says %q, want context deregistered", n.Err)
		}
	})

	row("daemon drain", nil, func(fx *watchFixture) {
		fx.hold(5)
		id, _ := fx.open(6)
		fx.st.Server.Close()
		other, n := fx.notice(id)
		fx.expect("at the close", append(other, n), id, "draining done")
		if resp, err := fx.read(); err != io.EOF {
			t.Errorf("after the notice: %v %+v, want the connection closed", err, resp)
		}
	})

	row("client disconnect", slowSims, func(fx *watchFixture) {
		// The client's own prefetch produces step 6; its open joins it.
		if resp := fx.call(netproto.OpPrefetch, filesBody(6)); !resp.OK || resp.Count != 1 {
			t.Fatalf("prefetch: %+v", resp)
		}
		fx.open(6)
		fx.conn.Close()
		// The departed client's notice keeps nothing alive: the prefetch
		// is killed as if the client had never opened, and the kill's
		// event takes the notice's waiter, which is told nothing.
		eventually(t, "the prefetch killed", func() bool { return kills(t, fx.st) == 1 })
		eventually(t, "the notice waiter gone", func() bool { return len(fx.st.V.Hub().Waiters("clim")) == 0 })
	})

	row("two opens before ready", nil, func(fx *watchFixture) {
		fx.hold(5)
		id1, _ := fx.open(6)
		id2, _ := fx.open(6)
		fx.release()
		for _, id := range []uint64{id1, id2} {
			other, n := fx.notice(id)
			fx.expect("notice", append(other, n), id, "ok ready done")
		}
		if n := fx.refs(6); n != 2 {
			t.Errorf("two opens left %d references, want 2", n)
		}
	})

	row("close before the notice", nil, func(fx *watchFixture) {
		fx.hold(5)
		id, _ := fx.open(6)
		if resp := fx.call(netproto.OpRelease, netproto.FileBody{Context: "clim", File: file(6)}); !resp.OK {
			t.Fatalf("release: %+v", resp)
		}
		fx.release()
		// The notice is still owed, and still ends the request.
		other, n := fx.notice(id)
		fx.expect("notice", append(other, n), id, "ok ready done")
		if n := fx.refs(6); n != 0 {
			t.Errorf("closed file still holds %d references", n)
		}
	})
}
