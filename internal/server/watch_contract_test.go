package server

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"simfs/internal/core"
	"simfs/internal/model"
	"simfs/internal/netproto"
)

// The readiness-stream contract: what a client observes, frame by frame,
// for acquire and subscribe. The table below is the wire behavior the
// two ops must keep; it speaks raw binary frames so
// nothing in dvlib can paper over a changed sequence.

// watchFixture is one daemon and one raw session. Re-simulations write
// through a per-step gate, so a test decides when a promised file
// resolves instead of racing the launcher.
type watchFixture struct {
	t    *testing.T
	st   *Stack
	conn net.Conn
	next uint64
	// missed holds the opens answered with a miss whose notice has not
	// come; read sets each notice aside in notices, by open ID.
	missed  map[uint64]bool
	notices map[uint64]netproto.Response

	mu    sync.Mutex
	gates map[int]chan struct{}
}

func newWatchFixture(t *testing.T, configure func(*Stack)) *watchFixture {
	t.Helper()
	fx := &watchFixture{t: t, next: 1, gates: map[int]chan struct{}{},
		missed: map[uint64]bool{}, notices: map[uint64]netproto.Response{}}
	var addr string
	fx.st, addr = testStackWith(t, func(st *Stack) {
		inner := st.Launcher.Write
		st.Launcher.Write = func(ctx *model.Context, step int) error {
			fx.mu.Lock()
			gate := fx.gates[step]
			fx.mu.Unlock()
			if gate != nil {
				<-gate
			}
			return inner(ctx, step)
		}
		if configure != nil {
			configure(st)
		}
	})
	// Registered after testStackWith's cleanup, so it runs first: no
	// simulation may still sit on a gate when the launcher is waited for.
	t.Cleanup(func() { fx.release() })
	fx.conn = rawConn(t, addr)
	fx.conn.SetDeadline(time.Now().Add(20 * time.Second))
	if resp := fx.call(netproto.OpHello, netproto.HelloBody{Version: netproto.ProtoVersion, Client: "contract",
		Caps: []string{netproto.CapBinary}}); !resp.OK {
		t.Fatalf("handshake: %+v", resp)
	}
	return fx
}

// hold gates the production of the steps until release.
func (fx *watchFixture) hold(steps ...int) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	for _, s := range steps {
		fx.gates[s] = make(chan struct{})
	}
}

// release opens the gates of the steps (all gates when none is named).
func (fx *watchFixture) release(steps ...int) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	if len(steps) == 0 {
		for s := range fx.gates {
			steps = append(steps, s)
		}
	}
	for _, s := range steps {
		if g := fx.gates[s]; g != nil {
			close(g)
			delete(fx.gates, s)
		}
	}
}

func file(step int) string { return model.StepFilename("clim_out_", step, ".nc") }

// send writes one request frame and returns its ID.
func (fx *watchFixture) send(op string, body any) uint64 {
	fx.t.Helper()
	id := fx.next
	fx.next++
	env, err := netproto.NewEnvelope(id, op, body)
	if err == nil {
		err = netproto.Binary.EncodeFrame(fx.conn, env)
	}
	if err != nil {
		fx.t.Fatalf("send %s: %v", op, err)
	}
	return id
}

// frame reads the next frame. The notice of a missed open is set aside
// in notices, and noticed says so.
func (fx *watchFixture) frame() (resp netproto.Response, noticed bool, err error) {
	if err = netproto.Binary.DecodeFrame(fx.conn, &resp); err != nil || !fx.missed[resp.ID] {
		return resp, false, err
	}
	if !resp.Terminal() {
		fx.t.Errorf("open %d answered again without ending: %q", resp.ID, sig(resp))
	}
	delete(fx.missed, resp.ID)
	fx.notices[resp.ID] = resp
	return resp, true, nil
}

// read returns the next frame that is not the notice of a missed open.
func (fx *watchFixture) read() (netproto.Response, error) {
	for {
		resp, noticed, err := fx.frame()
		if err != nil || !noticed {
			return resp, err
		}
	}
}

// open sends an open of the step and reads its first answer; a miss is
// noted, so read sets its notice aside.
func (fx *watchFixture) open(step int) (uint64, netproto.Response) {
	fx.t.Helper()
	id := fx.send(netproto.OpOpen, netproto.FileBody{Context: "clim", File: file(step)})
	_, resp := fx.until(id, func(netproto.Response) bool { return true })
	if resp.OK && !resp.Available {
		fx.missed[id] = true
	}
	return id, resp
}

// notice reads frames until open id's notice has come and returns it
// with the other frames read meanwhile.
func (fx *watchFixture) notice(id uint64) (other []netproto.Response, notice netproto.Response) {
	fx.t.Helper()
	for {
		if n, ok := fx.notices[id]; ok {
			delete(fx.notices, id)
			return other, n
		}
		if !fx.missed[id] {
			fx.t.Fatalf("open %d did not miss: no notice is owed", id)
		}
		resp, noticed, err := fx.frame()
		if err != nil {
			fx.t.Fatalf("waiting on the notice of open %d: %v (frames so far: %v)", id, err, sigs(other))
		}
		if !noticed {
			other = append(other, resp)
		}
	}
}

// until reads frames up to and including the first one of request id
// that satisfies last, returning every frame read for other requests.
func (fx *watchFixture) until(id uint64, last func(netproto.Response) bool) (other []netproto.Response, final netproto.Response) {
	fx.t.Helper()
	for {
		resp, err := fx.read()
		if err != nil {
			fx.t.Fatalf("waiting on request %d: %v (frames so far: %v)", id, err, sigs(other))
		}
		if resp.ID == id && last(resp) {
			return other, resp
		}
		other = append(other, resp)
	}
}

// call round-trips a single-response request.
func (fx *watchFixture) call(op string, body any) netproto.Response {
	fx.t.Helper()
	_, resp := fx.until(fx.send(op, body), func(netproto.Response) bool { return true })
	return resp
}

// settled returns the frames the daemon sent before it answered a ping
// issued now: everything the dispatch loop had replied to by then.
func (fx *watchFixture) settled() []netproto.Response {
	fx.t.Helper()
	frames, _ := fx.until(fx.send(netproto.OpPing, nil), func(netproto.Response) bool { return true })
	return frames
}

// stream reads the frames of stream id through its terminal one.
func (fx *watchFixture) stream(id uint64) []netproto.Response {
	fx.t.Helper()
	frames, final := fx.until(id, func(r netproto.Response) bool { return r.Terminal() })
	return append(frames, final)
}

// produce makes the steps resident: open, wait for the ready push,
// release.
func (fx *watchFixture) produce(steps ...int) {
	fx.t.Helper()
	for _, s := range steps {
		body := netproto.FileBody{Context: "clim", File: file(s)}
		if _, resp := fx.open(s); !resp.OK {
			fx.t.Fatalf("open %s: %+v", body.File, resp)
		}
		fx.stream(fx.send(netproto.OpSubscribe, netproto.FilesBody{Context: "clim", Files: []string{body.File}}))
		if resp := fx.call(netproto.OpRelease, body); !resp.OK {
			fx.t.Fatalf("release %s: %+v", body.File, resp)
		}
	}
}

// promise opens the steps so their re-simulations are promised; acquire
// takes its own references, so for it this is a no-op.
func (fx *watchFixture) promise(op string, steps ...int) {
	fx.t.Helper()
	if op == netproto.OpAcquire {
		return
	}
	for _, s := range steps {
		if _, resp := fx.open(s); !resp.OK || resp.Available {
			fx.t.Fatalf("open %s: %+v", file(s), resp)
		}
	}
}

// refs counts the references the session holds on a step by releasing
// until the daemon refuses.
func (fx *watchFixture) refs(step int) int {
	fx.t.Helper()
	n := 0
	for fx.call(netproto.OpRelease, netproto.FileBody{Context: "clim", File: file(step)}).OK {
		n++
	}
	return n
}

// sig renders what a client can tell one stream frame from another by:
// the file, the flags, the code and the retry details — never the
// request ID or the message text.
func sig(resp netproto.Response) string {
	var parts []string
	if resp.File != "" {
		parts = append(parts, strings.TrimSuffix(strings.TrimPrefix(resp.File, "clim_out_000000"), ".nc"))
	}
	if resp.OK {
		parts = append(parts, "ok")
	}
	if resp.Ready {
		parts = append(parts, "ready")
	}
	if resp.Code != "" {
		parts = append(parts, string(resp.Code))
	}
	if (resp.Err != "") != (resp.Code != "") {
		parts = append(parts, "ERR-WITHOUT-CODE-OR-CODE-WITHOUT-ERR")
	}
	if resp.Attempts != 0 {
		parts = append(parts, fmt.Sprintf("attempts=%d", resp.Attempts))
	}
	if resp.RetryAfterNs > 0 {
		parts = append(parts, "retry")
	}
	if resp.Done {
		parts = append(parts, "done")
	}
	return strings.Join(parts, " ")
}

func sigs(frames []netproto.Response) []string {
	out := []string{}
	for _, f := range frames {
		out = append(out, sig(f))
	}
	return out
}

func (fx *watchFixture) expect(what string, got []netproto.Response, id uint64, want ...string) {
	fx.t.Helper()
	for _, f := range got {
		if f.ID != id {
			fx.t.Errorf("%s: frame %q answers request %d, want %d", what, sig(f), f.ID, id)
		}
	}
	if want == nil {
		want = []string{}
	}
	if !reflect.DeepEqual(sigs(got), want) {
		fx.t.Errorf("%s:\n got %q\nwant %q", what, sigs(got), want)
	}
}

// quarantining makes every re-simulation of steps 5..8 crash at step 6
// and the second crash open the circuit breaker for an hour.
func quarantining(st *Stack) {
	st.Launcher.FailAt = func(_ string, first, last int) int {
		if first <= 6 && 6 <= last {
			return 6
		}
		return -1
	}
	st.V.SetRetryPolicy(core.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, Cooldown: time.Hour})
}

var watchOps = []string{netproto.OpAcquire, netproto.OpSubscribe}

// perOp runs the case once per stream op, each on a daemon of its own.
func perOp(t *testing.T, name string, configure func(*Stack), run func(fx *watchFixture, op string)) {
	for _, op := range watchOps {
		t.Run(name+"/"+op, func(t *testing.T) {
			run(newWatchFixture(t, configure), op)
		})
	}
}

func filesBody(steps ...int) netproto.FilesBody {
	b := netproto.FilesBody{Context: "clim"}
	for _, s := range steps {
		b.Files = append(b.Files, file(s))
	}
	return b
}

func TestWatchContract(t *testing.T) {
	perOp(t, "resident", nil, func(fx *watchFixture, op string) {
		fx.produce(3)
		id := fx.send(op, filesBody(3))
		fx.expect("stream", fx.stream(id), id, "03 ok ready", "ok done")
		wantRefs := 0
		if op == netproto.OpAcquire {
			wantRefs = 1
		}
		if n := fx.refs(3); n != wantRefs {
			t.Errorf("session holds %d references after %s, want %d", n, op, wantRefs)
		}
	})

	perOp(t, "promised then ready", nil, func(fx *watchFixture, op string) {
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(6))
		fx.expect("before production", fx.settled(), id)
		fx.release()
		fx.expect("after production", fx.stream(id), id, "06 ok ready", "ok done")
	})

	perOp(t, "promised then failed", quarantining, func(fx *watchFixture, op string) {
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(6))
		fx.expect("before the crash", fx.settled(), id)
		fx.release()
		if op == netproto.OpAcquire {
			// The first failure is the acquire's last frame.
			fx.expect("after the crash", fx.stream(id), id, "06 failed attempts=2 retry done")
			return
		}
		fx.expect("after the crash", fx.stream(id), id, "06 failed attempts=2 retry", "ok done")
	})

	perOp(t, "first failure ends only an acquire", quarantining, func(fx *watchFixture, op string) {
		fx.hold(5, 57)
		fx.promise(op, 6, 60)
		id := fx.send(op, filesBody(6, 60))
		fx.expect("before the crash", fx.settled(), id)
		fx.release(5)
		if op == netproto.OpAcquire {
			fx.expect("after the crash", fx.stream(id), id, "06 failed attempts=2 retry done")
			return
		}
		_, failed := fx.until(id, func(netproto.Response) bool { return true })
		fx.expect("after the crash", []netproto.Response{failed}, id, "06 failed attempts=2 retry")
		fx.release(57)
		fx.expect("after the other file", fx.stream(id), id, "60 ok ready", "ok done")
	})

	perOp(t, "quarantined interval", quarantining, func(fx *watchFixture, op string) {
		fx.produce(3)
		// Run the interval into quarantine first.
		fx.promise(netproto.OpSubscribe, 6)
		fx.stream(fx.send(netproto.OpSubscribe, filesBody(6)))
		if n := fx.refs(6); n != 1 {
			t.Fatalf("setup left %d references on step 6, want 1", n)
		}
		id := fx.send(op, filesBody(3, 6))
		switch op {
		case netproto.OpAcquire:
			// The open of step 6 is refused: the acquire fails as a whole,
			// after the frame step 3 already earned, and holds nothing.
			fx.expect("stream", fx.stream(id), id, "03 ok ready", "failed attempts=2 retry done")
			if n := fx.refs(3); n != 0 {
				t.Errorf("refused acquire left %d references on step 3", n)
			}
		case netproto.OpSubscribe:
			fx.expect("stream", fx.stream(id), id, "03 ok ready", "06 not_produced", "ok done")
		}
	})

	perOp(t, "neither resident nor promised", nil, func(fx *watchFixture, op string) {
		fx.hold(37)
		id := fx.send(op, filesBody(40))
		switch op {
		case netproto.OpSubscribe:
			fx.expect("stream", fx.stream(id), id, "40 not_produced", "ok done")
			return
		case netproto.OpAcquire:
			// The acquire's own open promises it.
			fx.expect("before production", fx.settled(), id)
		}
		fx.release()
		fx.expect("after production", fx.stream(id), id, "40 ok ready", "ok done")
	})

	perOp(t, "mixed list", nil, func(fx *watchFixture, op string) {
		fx.produce(3)
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(6, 3))
		fx.expect("resident part", fx.settled(), id, "03 ok ready")
		fx.release()
		fx.expect("promised part", fx.stream(id), id, "06 ok ready", "ok done")
	})

	perOp(t, "duplicate names", nil, func(fx *watchFixture, op string) {
		fx.produce(3)
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(3, 6, 3, 6))
		fx.expect("resident part", fx.settled(), id, "03 ok ready")
		fx.release()
		fx.expect("promised part", fx.stream(id), id, "06 ok ready", "ok done")
		// An acquire references a file once per mention; the others hold
		// only what promise opened.
		want3, want6 := 0, 1
		if op == netproto.OpAcquire {
			want3, want6 = 2, 2
		}
		if n3, n6 := fx.refs(3), fx.refs(6); n3 != want3 || n6 != want6 {
			t.Errorf("references after %s: step 3 ×%d, step 6 ×%d, want ×%d and ×%d", op, n3, n6, want3, want6)
		}
	})

	refused := func(name string, body netproto.FilesBody, want string) {
		perOp(t, name, nil, func(fx *watchFixture, op string) {
			fx.produce(3)
			id := fx.send(op, body)
			fx.expect("stream", fx.stream(id), id, want)
			if n := fx.refs(3); n != 0 {
				t.Errorf("refused %s left %d references on step 3", op, n)
			}
			if resp := fx.call(netproto.OpPing, nil); !resp.OK {
				t.Errorf("session did not survive the refusal: %+v", resp)
			}
		})
	}
	refused("empty list", netproto.FilesBody{Context: "clim"}, "bad_request done")
	refused("unknown context", netproto.FilesBody{Context: "nope", Files: []string{file(3)}}, "no_such_context done")
	refused("non-canonical name", netproto.FilesBody{Context: "clim", Files: []string{file(3), "clim_out_3.nc"}}, "bad_request done")
	refused("step outside the timeline", filesBody(3, 65), "bad_request done")

	perOp(t, "unsubscribe mid-stream", nil, func(fx *watchFixture, op string) {
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(6))
		fx.expect("before the unsubscribe", fx.settled(), id)
		if resp := fx.call(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: id}); !resp.OK {
			t.Fatalf("unsubscribe: %+v", resp)
		}
		// A second stream on the same file runs to its end without a
		// single frame for the first.
		fx.promise(netproto.OpSubscribe, 7)
		fx.release()
		id2 := fx.send(netproto.OpSubscribe, filesBody(6, 7))
		for _, f := range fx.stream(id2) {
			if f.ID == id {
				t.Errorf("unsubscribed stream still got %q", sig(f))
			}
		}
		// Unsubscribing twice, or from a stream that never was, is acked.
		for _, sub := range []uint64{id, 9999} {
			if resp := fx.call(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: sub}); !resp.OK {
				t.Errorf("unsubscribe %d: %+v", sub, resp)
			}
		}
	})

	perOp(t, "daemon close mid-stream", nil, func(fx *watchFixture, op string) {
		fx.produce(3)
		fx.hold(5)
		fx.promise(op, 6)
		id := fx.send(op, filesBody(3, 6))
		fx.expect("before the close", fx.settled(), id, "03 ok ready")
		fx.st.Server.Close()
		// Only this stream's frames: a stream that has just sent its Done
		// (produce's) may be told too, and its client drops that frame.
		var mine []netproto.Response
		for _, f := range fx.stream(id) {
			if f.ID == id {
				mine = append(mine, f)
			}
		}
		fx.expect("at the close", mine, id, "draining done")
		for {
			resp, err := fx.read()
			if err == io.EOF {
				break
			}
			if err != nil || resp.ID == id {
				t.Fatalf("after the terminal frame: %v %+v, want the connection closed", err, resp)
			}
		}
	})
}
