package server

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/model"
	"simfs/internal/netproto"
)

// rawConn dials the daemon without any client library: the tests below
// speak the wire protocol (or the wrong one) by hand.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// exchange writes one request frame and reads the next response frame,
// both on the binary codec (whose JSON fallback carries the hello and
// the control plane).
func exchange(t *testing.T, conn net.Conn, id uint64, op string, body any) netproto.Response {
	t.Helper()
	env, _ := netproto.NewEnvelope(id, op, body)
	if err := netproto.Binary.EncodeFrame(conn, env); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// binSession dials the daemon and completes a hello asking for the
// binary codec as request 1: every frame after it speaks
// netproto.Binary.
func binSession(t *testing.T, addr, client string) net.Conn {
	t.Helper()
	conn := rawConn(t, addr)
	if resp := exchange(t, conn, 1, netproto.OpHello, netproto.HelloBody{Version: netproto.ProtoVersion,
		Client: client, Caps: []string{netproto.CapBinary}}); !resp.OK {
		t.Fatalf("handshake: %+v", resp)
	}
	return conn
}

// A peer the handshake refuses — here a v2 client, whose hello asks for
// JSON frames — is told why in JSON on its hello's ID, and the daemon
// then closes the connection.
func TestHandshakeRefusalClosesSession(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello, netproto.HelloBody{Version: 2, Client: "v2"})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || resp.ID != 1 || resp.Code != netproto.CodeVersion {
		t.Fatalf("v2 hello answered with %+v (%v), want a JSON CodeVersion refusal on id 1", resp, err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != io.EOF {
		t.Errorf("connection survived the version refusal: %v", err)
	}
}

// A hello that names no client is refused with bad_request: core reads
// the empty name as "no client", so such a session's prefetches would
// pass for demand work. The peer may then hello again under a name.
func TestHandshakeRequiresClientName(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	resp := exchange(t, conn, 1, netproto.OpHello, netproto.HelloBody{Version: netproto.ProtoVersion,
		Caps: []string{netproto.CapBinary}})
	if resp.OK || resp.ID != 1 || resp.Code != netproto.CodeBadRequest {
		t.Fatalf("unnamed hello answered with %+v, want a bad_request refusal on id 1", resp)
	}
	if resp := exchange(t, conn, 2, netproto.OpHello, netproto.HelloBody{Version: netproto.ProtoVersion,
		Client: "named", Caps: []string{netproto.CapBinary}}); !resp.OK || resp.ID != 2 {
		t.Fatalf("named hello after the refusal: %+v", resp)
	}
}

// A v1 client (no hello, untyped request bag) against the new daemon:
// the first frame is answered with a structured CodeVersion error, in
// JSON so the old client can read it, and the connection closes.
func TestVersionSkewOldClientNewDaemon(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	v1 := `{"id":7,"op":"ping","client":"old"}`
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(v1))), v1...)); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 {
		t.Errorf("rejection answered to id %d, want 7", resp.ID)
	}
	if resp.Code != netproto.CodeVersion || resp.Err == "" {
		t.Errorf("old client got %+v, want a CodeVersion error", resp)
	}
	// The daemon closes the connection after the rejection.
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != io.EOF {
		t.Errorf("connection survived the version rejection: %v", err)
	}
}

// A newer client downgrades gracefully: the daemon answers with its own
// (lower) version and keeps serving the binary session.
func TestVersionSkewNewerClientDowngrades(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	resp := exchange(t, conn, 1, netproto.OpHello, netproto.HelloBody{Version: netproto.ProtoVersion + 5,
		Client: "future", Caps: []string{netproto.CapBinary}})
	if !resp.OK || resp.Proto == nil || resp.Proto.Version != netproto.ProtoVersion {
		t.Fatalf("downgrade handshake got %+v, want negotiated version %d", resp, netproto.ProtoVersion)
	}
	// The downgraded session works: a ping round-trips.
	if resp := exchange(t, conn, 2, netproto.OpPing, nil); !resp.OK || resp.ID != 2 {
		t.Errorf("ping after downgrade: %+v", resp)
	}
}

// A binary client against a daemon that grants the hello without the
// binary codec — what a daemon started with the retired -no-binary
// switch advertised — has no JSON data plane to fall back to: Dial fails
// with CodeVersion and sends nothing after the hello.
func TestVersionSkewBinaryClientNoBinDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	after := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			after <- err
			return
		}
		defer conn.Close()
		var env netproto.Envelope
		if err := netproto.JSON.DecodeFrame(conn, &env); err != nil {
			after <- err
			return
		}
		netproto.JSON.EncodeFrame(conn, netproto.Response{ID: env.ID, OK: true,
			Proto: &netproto.HelloInfo{Version: netproto.ProtoVersion, Caps: daemonCaps}})
		// The next read sees the client hang up, not a request.
		after <- netproto.JSON.DecodeFrame(conn, &env)
	}()
	c, err := dvlib.Dial(ln.Addr().String(), "wants-binary")
	if err == nil {
		c.Close()
		t.Fatal("dial to a daemon without the binary codec succeeded")
	}
	if code := dvlib.ErrCodeOf(err); code != netproto.CodeVersion {
		t.Errorf("dial failed with code %q (%v), want %q", code, err, netproto.CodeVersion)
	}
	if err := <-after; err != io.EOF {
		t.Errorf("after the refused grant the daemon read %v, want the client to hang up", err)
	}
}

// After the hello a data-plane op sent as JSON is refused with bad_frame
// on its own ID and the session carries on: JSON control-plane frames
// are still served, and so are binary ones.
func TestJSONDataPlaneRefused(t *testing.T) {
	_, addr := testStack(t)
	conn := binSession(t, addr, "json-open")
	open, _ := netproto.NewEnvelope(5, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"})
	if err := netproto.JSON.EncodeFrame(conn, open); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil || resp.ID != 5 || resp.Code != netproto.CodeFrame {
		t.Fatalf("JSON open answered with %+v (%v), want bad_frame on id 5", resp, err)
	}
	if resp := exchange(t, conn, 6, netproto.OpSchedGet, nil); !resp.OK || resp.ID != 6 || resp.Sched == nil {
		t.Errorf("JSON sched-get answered with %+v, want OK on id 6", resp)
	}
	if resp := exchange(t, conn, 7, netproto.OpPing, nil); !resp.OK || resp.ID != 7 {
		t.Errorf("binary ping answered with %+v, want OK on id 7", resp)
	}
}

// A complete frame with a garbage payload must not cost the connection:
// the daemon answers CodeFrame and keeps serving.
func TestGarbageFrameRecovered(t *testing.T) {
	_, addr := testStack(t)
	conn := binSession(t, addr, "messy")
	// Length-prefixed garbage: 4 bytes of non-JSON.
	if _, err := conn.Write([]byte{0, 0, 0, 4, '{', '{', '{', '{'}); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame {
		t.Errorf("garbage frame answered with %+v, want CodeFrame", resp)
	}
	// The session survives: a ping still round-trips.
	if resp := exchange(t, conn, 2, netproto.OpPing, nil); !resp.OK || resp.ID != 2 {
		t.Errorf("ping after garbage frame: %+v", resp)
	}
}

// A raw binary session: hot ops round-trip as binary frames, and a
// garbage binary frame is answered
// with CodeFrame without costing the connection.
func TestBinarySessionRawFrames(t *testing.T) {
	_, addr := testStack(t)
	conn := binSession(t, addr, "raw-bin")
	if resp := exchange(t, conn, 2, netproto.OpPing, nil); !resp.OK || resp.ID != 2 {
		t.Fatalf("binary ping: %+v", resp)
	}
	if resp := exchange(t, conn, 3, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"}); !resp.OK || resp.ID != 3 {
		t.Fatalf("binary open: %+v", resp)
	}
	// An unknown binary opcode is a recoverable frame error.
	if _, err := conn.Write([]byte{0, 0, 0, 2, 0x7F, 0x01}); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame {
		t.Errorf("garbage binary frame answered with %+v, want CodeFrame", resp)
	}
	// A known opcode with a truncated body: the request ID was already
	// parsed, so the bad_frame reply must carry it — a client matches
	// replies to calls by ID and would drop one addressed to 0.
	if _, err := conn.Write([]byte{0, 0, 0, 3, 0x01, 9, 5}); err != nil { // open, id 9, 5-byte context cut off
		t.Fatal(err)
	}
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame || resp.ID != 9 {
		t.Errorf("truncated binary open answered with %+v, want CodeFrame on id 9", resp)
	}
	if resp := exchange(t, conn, 4, netproto.OpPing, nil); !resp.OK || resp.ID != 4 {
		t.Errorf("binary ping after garbage frame: %+v", resp)
	}
}

// The wait op is retired (subscribe serves every wait), and so are the
// autoscale-report/autoscale-status pair of the daemon's old autoscale
// decision ring. A peer that predates the retirement is told so,
// recoverably and on its request's own ID — bad_frame for the binary
// opcode 2, unsupported for each JSON op name — and the session keeps
// working.
func TestRetiredWaitOpRefused(t *testing.T) {
	_, addr := testStack(t)
	conn := binSession(t, addr, "old-peer")
	// The binary frame an old dvlib encoded for wait: opcode 2, id 7,
	// context "clim", file "f".
	if _, err := conn.Write([]byte{0, 0, 0, 9, 0x02, 7, 4, 'c', 'l', 'i', 'm', 1, 'f'}); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame || resp.ID != 7 || resp.OK {
		t.Errorf("binary wait answered with %+v, want CodeFrame on id 7", resp)
	}
	// The same op by name (a JSON payload inside the binary session),
	// then the autoscale ops with the bodies an older simfs-ctl sent, and
	// the fed-watch an older daemon's federation bridge sent.
	for _, row := range []struct {
		id   uint64
		op   string
		body any
	}{
		{8, "wait", netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"}},
		{9, "autoscale-report", map[string]any{"active": true, "policies": []string{"node-budget"}}},
		{10, "autoscale-status", nil},
		{11, "fed-watch", netproto.FilesBody{Context: "clim", Files: []string{"clim_out_00000003.nc"}}},
		// And a name the op table never had: it has no row to index the
		// handler table by.
		{12, "no-such-op", nil},
	} {
		if resp := exchange(t, conn, row.id, row.op, row.body); resp.Code != netproto.CodeUnsupported || resp.ID != row.id || resp.OK {
			t.Errorf("JSON %s answered with %+v, want CodeUnsupported on id %d", row.op, resp, row.id)
		}
	}
	if resp := exchange(t, conn, 13, netproto.OpPing, nil); !resp.OK || resp.ID != 13 {
		t.Errorf("ping after the refusals: %+v", resp)
	}
}

// Graceful shutdown: a wait pending when the daemon closes is answered
// with a terminal structured draining frame — not a silently dropped
// connection — so the client knows the request can be retried elsewhere.
func TestCloseDrainsPendingWaiters(t *testing.T) {
	var st *Stack
	_, addr := testStackWith(t, func(s *Stack) {
		st = s
		// Slow each produced step down so the wait below is still pending
		// when Close fires.
		inner := s.Launcher.Write
		s.Launcher.Write = func(ctx *model.Context, step int) error {
			time.Sleep(50 * time.Millisecond)
			return inner(ctx, step)
		}
	})
	conn := binSession(t, addr, "drainee")
	if resp := exchange(t, conn, 2, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000006.nc"}); !resp.OK || resp.Available {
		t.Fatalf("open: %+v", resp)
	}
	wait, _ := netproto.NewEnvelope(3, netproto.OpSubscribe,
		netproto.FilesBody{Context: "clim", Files: []string{"clim_out_00000006.nc"}})
	if err := netproto.Binary.EncodeFrame(conn, wait); err != nil {
		t.Fatal(err)
	}
	// A ping round-trip pins the ordering: once its reply arrives the
	// daemon has dispatched the wait, so Close finds it pending.
	if resp := exchange(t, conn, 4, netproto.OpPing, nil); !resp.OK || resp.ID != 4 {
		t.Fatalf("ping: %+v", resp)
	}

	st.Server.Close()
	// Both are still owed an answer: the wait, and the open its notice.
	drained := map[uint64]bool{}
	for range 2 {
		var resp netproto.Response
		if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
			t.Fatalf("pending requests got no frame on shutdown: %v (answered so far: %v)", err, drained)
		}
		if resp.Code != netproto.CodeDraining || !resp.Done || drained[resp.ID] {
			t.Errorf("shutdown answered with %+v, want one terminal CodeDraining frame each on ids 2 and 3", resp)
		}
		drained[resp.ID] = true
	}
	if !drained[2] || !drained[3] {
		t.Errorf("shutdown drained ids %v, want 2 (the open's notice) and 3 (the wait)", drained)
	}
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != io.EOF {
		t.Errorf("connection survived shutdown: %v %+v", err, resp)
	}
}

// A malformed body on a known op is answered with CodeBadRequest naming
// the op and id, and the connection survives. The op is a control-plane
// one: its body is JSON on every session, where a hot op's malformed
// binary body is a bad_frame (TestBinarySessionRawFrames).
func TestBadBodyAnsweredStructured(t *testing.T) {
	_, addr := testStack(t)
	conn := binSession(t, addr, "messy")
	// 42 is a number, not an object.
	if resp := exchange(t, conn, 5, netproto.OpStats, 42); resp.ID != 5 || resp.Code != netproto.CodeBadRequest {
		t.Errorf("bad body answered with %+v, want CodeBadRequest on id 5", resp)
	}
	if resp := exchange(t, conn, 6, netproto.OpPing, nil); !resp.OK || resp.ID != 6 {
		t.Errorf("ping after the bad body: %+v", resp)
	}
}
