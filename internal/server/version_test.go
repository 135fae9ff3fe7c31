package server

import (
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

// A v1 client (no hello, untyped request bag) against the new daemon:
// the first frame is answered with a structured CodeVersion error and
// the connection closes.
func TestVersionSkewOldClientNewDaemon(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	if err := netproto.JSON.EncodeFrame(conn, netproto.LegacyRequest{ID: 7, Op: netproto.OpPing, Client: "old"}); err != nil {
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
// (lower) version and keeps serving.
func TestVersionSkewNewerClientDowngrades(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	env, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion + 5, Client: "future"})
	if err := netproto.JSON.EncodeFrame(conn, env); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Proto == nil || resp.Proto.Version != netproto.ProtoVersion {
		t.Fatalf("downgrade handshake got %+v, want negotiated version %d", resp, netproto.ProtoVersion)
	}
	// The downgraded session works: a ping round-trips.
	ping, _ := netproto.NewEnvelope(2, netproto.OpPing, nil)
	if err := netproto.JSON.EncodeFrame(conn, ping); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Errorf("ping after downgrade: %v %+v", err, resp)
	}
}

// The new client against a daemon that predates the hello op: Dial
// detects the v1-style untyped error and fails with CodeVersion.
func TestVersionSkewNewClientOldDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A v1 daemon reads the hello as an unknown op and answers with
		// an untyped (code-less) error, like the old dispatch did.
		var req netproto.LegacyRequest
		if err := netproto.JSON.DecodeFrame(conn, &req); err != nil {
			return
		}
		netproto.JSON.EncodeFrame(conn, netproto.Response{ID: req.ID, Err: `unknown op "hello"`})
	}()
	_, err = dvlib.Dial(ln.Addr().String(), "new-client")
	if err == nil {
		t.Fatal("dial to a pre-versioned daemon succeeded")
	}
	if code := dvlib.ErrCodeOf(err); code != netproto.CodeVersion {
		t.Errorf("dial failed with code %q (%v), want %q", code, err, netproto.CodeVersion)
	}
}

// A complete frame with a garbage payload must not cost the connection:
// the daemon answers CodeFrame and keeps serving.
func TestGarbageFrameRecovered(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion, Client: "messy"})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	// Length-prefixed garbage: 4 bytes of non-JSON.
	if _, err := conn.Write([]byte{0, 0, 0, 4, '{', '{', '{', '{'}); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame {
		t.Errorf("garbage frame answered with %+v, want CodeFrame", resp)
	}
	// The session survives: a ping still round-trips.
	ping, _ := netproto.NewEnvelope(2, netproto.OpPing, nil)
	if err := netproto.JSON.EncodeFrame(conn, ping); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 2 {
		t.Errorf("ping after garbage frame: %v %+v", err, resp)
	}
}

// A JSON-only v2 client against a binary-capable v3 daemon: the daemon
// advertises the binary capability but — because the client never asked
// for it — keeps the session on JSON frames for its whole life.
func TestVersionSkewJSONClientBinaryDaemon(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.MinProtoVersion, Client: "v2-json",
			Caps: []string{netproto.CapAdmin, netproto.CapWatch}})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	if resp.Proto == nil || !netproto.HasCap(resp.Proto.Caps, netproto.CapBinary) {
		t.Fatalf("daemon did not advertise %q: %+v", netproto.CapBinary, resp.Proto)
	}
	// Hot ops still round-trip as JSON frames.
	open, _ := netproto.NewEnvelope(2, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"})
	if err := netproto.JSON.EncodeFrame(conn, open); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 2 {
		t.Fatalf("JSON open on a binary-capable daemon: %v %+v", err, resp)
	}
	ping, _ := netproto.NewEnvelope(3, netproto.OpPing, nil)
	netproto.JSON.EncodeFrame(conn, ping)
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 3 {
		t.Errorf("JSON ping: %v %+v", err, resp)
	}
}

// A binary-requesting client against a daemon not offering the
// capability: the handshake succeeds and the session falls back to JSON
// cleanly.
func TestVersionSkewBinaryClientNoBinDaemon(t *testing.T) {
	_, addr := testStackWith(t, func(st *Stack) { st.Server.DisableBinary = true })
	c, err := dvlib.Dial(addr, "wants-binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.UsesBinary() {
		t.Fatal("client negotiated binary against a DisableBinary daemon")
	}
	if c.HasCapability(netproto.CapBinary) {
		t.Error("DisableBinary daemon advertised the binary capability")
	}
	// The JSON fallback serves the full data plane.
	names, err := c.Contexts()
	if err != nil || len(names) != 1 || names[0] != "clim" {
		t.Fatalf("Contexts over JSON fallback = %v, %v", names, err)
	}
	ctx, err := c.Init("clim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Open(ctx.Filename(2)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(ctx.Filename(2)); err != nil {
		t.Fatal(err)
	}
}

// A raw binary session: hello negotiates the codec switch, hot ops
// round-trip as binary frames, and a garbage binary frame is answered
// with CodeFrame without costing the connection.
func TestBinarySessionRawFrames(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion, Client: "raw-bin",
			Caps: []string{netproto.CapBinary}})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	// From here the session speaks binary both ways.
	ping, _ := netproto.NewEnvelope(2, netproto.OpPing, nil)
	if err := netproto.Binary.EncodeFrame(conn, ping); err != nil {
		t.Fatal(err)
	}
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 2 {
		t.Fatalf("binary ping: %v %+v", err, resp)
	}
	open, _ := netproto.NewEnvelope(3, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"})
	if err := netproto.Binary.EncodeFrame(conn, open); err != nil {
		t.Fatal(err)
	}
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 3 {
		t.Fatalf("binary open: %v %+v", err, resp)
	}
	// An unknown binary opcode is a recoverable frame error.
	if _, err := conn.Write([]byte{0, 0, 0, 2, 0x7F, 0x01}); err != nil {
		t.Fatal(err)
	}
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
	ping2, _ := netproto.NewEnvelope(4, netproto.OpPing, nil)
	netproto.Binary.EncodeFrame(conn, ping2)
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 4 {
		t.Errorf("binary ping after garbage frame: %v %+v", err, resp)
	}
}

// The wait op is retired (subscribe serves every wait). A peer that
// predates the retirement is told so, recoverably and on its request's
// own ID — bad_frame for the binary opcode 2, unsupported for the JSON
// op name — and the session keeps working.
func TestRetiredWaitOpRefused(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion, Client: "old-peer",
			Caps: []string{netproto.CapBinary}})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	// The binary frame an old dvlib encoded for wait: opcode 2, id 7,
	// context "clim", file "f".
	if _, err := conn.Write([]byte{0, 0, 0, 9, 0x02, 7, 4, 'c', 'l', 'i', 'm', 1, 'f'}); err != nil {
		t.Fatal(err)
	}
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeFrame || resp.ID != 7 || resp.OK {
		t.Errorf("binary wait answered with %+v, want CodeFrame on id 7", resp)
	}
	// The same op by name (a JSON payload inside the binary session).
	wait, _ := netproto.NewEnvelope(8, "wait", netproto.FileBody{Context: "clim", File: "clim_out_00000003.nc"})
	if err := netproto.Binary.EncodeFrame(conn, wait); err != nil {
		t.Fatal(err)
	}
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != netproto.CodeUnsupported || resp.ID != 8 || resp.OK {
		t.Errorf("JSON wait answered with %+v, want CodeUnsupported on id 8", resp)
	}
	ping, _ := netproto.NewEnvelope(9, netproto.OpPing, nil)
	netproto.Binary.EncodeFrame(conn, ping)
	if err := netproto.Binary.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 9 {
		t.Errorf("ping after the refusals: %v %+v", err, resp)
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
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion, Client: "drainee"})
	if err := netproto.JSON.EncodeFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	open, _ := netproto.NewEnvelope(2, netproto.OpOpen,
		netproto.FileBody{Context: "clim", File: "clim_out_00000006.nc"})
	if err := netproto.JSON.EncodeFrame(conn, open); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.Available {
		t.Fatalf("open: %v %+v", err, resp)
	}
	wait, _ := netproto.NewEnvelope(3, netproto.OpSubscribe,
		netproto.FilesBody{Context: "clim", Files: []string{"clim_out_00000006.nc"}})
	if err := netproto.JSON.EncodeFrame(conn, wait); err != nil {
		t.Fatal(err)
	}
	// A ping round-trip pins the ordering: once its reply arrives the
	// daemon has dispatched the wait, so Close finds it pending.
	ping, _ := netproto.NewEnvelope(4, netproto.OpPing, nil)
	if err := netproto.JSON.EncodeFrame(conn, ping); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK || resp.ID != 4 {
		t.Fatalf("ping: %v %+v", err, resp)
	}

	st.Server.Close()
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil {
		t.Fatalf("pending wait got no frame on shutdown: %v", err)
	}
	if resp.ID != 3 || resp.Code != netproto.CodeDraining || !resp.Done {
		t.Errorf("pending wait answered with %+v, want a terminal CodeDraining frame on id 3", resp)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != io.EOF {
		t.Errorf("connection survived shutdown: %v %+v", err, resp)
	}
}

// A malformed body on a known op is answered with CodeBadRequest naming
// the op and id, and the connection survives.
func TestBadBodyAnsweredStructured(t *testing.T) {
	_, addr := testStack(t)
	conn := rawConn(t, addr)
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello,
		netproto.HelloBody{Version: netproto.ProtoVersion, Client: "messy"})
	netproto.JSON.EncodeFrame(conn, hello)
	var resp netproto.Response
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil || !resp.OK {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	bad, _ := netproto.NewEnvelope(5, netproto.OpOpen, 42) // number, not an object
	if err := netproto.JSON.EncodeFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	if err := netproto.JSON.DecodeFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Code != netproto.CodeBadRequest {
		t.Errorf("bad body answered with %+v, want CodeBadRequest on id 5", resp)
	}
}
