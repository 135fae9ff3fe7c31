package netproto

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestAcceptHandshake drives the accepting half of the handshake — the
// one implementation behind the daemon and the router — over an
// in-memory pipe, one first frame per case. Only a hello at
// ProtoVersion or newer that asks for the binary codec is granted; every
// reply, grant or refusal, is JSON on the first frame's ID, so a peer of
// any version can read why it was refused.
func TestAcceptHandshake(t *testing.T) {
	hello := func(version int, caps ...string) []byte {
		var buf bytes.Buffer
		if err := JSON.EncodeFrame(&buf, Envelope{ID: 1, Op: OpHello, val: HelloBody{Version: version, Client: "c", Caps: caps}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var ping bytes.Buffer
	if err := Binary.EncodeFrame(&ping, Envelope{ID: 7, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	// What a pre-versioned client sent first: an untyped request bag.
	v1 := `{"id":7,"op":"ping","client":"old"}`
	cases := []struct {
		name  string
		first []byte
		// refusal: Accept must fail with a CodeVersion reply on this id.
		refusedID uint64
	}{
		{name: "no hello", first: ping.Bytes(), refusedID: 7},
		{name: "v1 client", first: append(binary.BigEndian.AppendUint32(nil, uint32(len(v1))), v1...), refusedID: 7},
		{name: "below min", first: hello(0, CapBinary), refusedID: 1},
		{name: "bin asked at v2", first: hello(2, CapBinary), refusedID: 1},
		{name: "v3 expects no open notices", first: hello(3, CapBinary), refusedID: 1},
		{name: "bin allowed but not asked", first: hello(ProtoVersion, CapAdmin), refusedID: 1},
		{name: "bin asked and allowed", first: hello(ProtoVersion, CapBinary)},
		{name: "above max is clamped", first: hello(ProtoVersion+5, CapBinary)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			c := NewConn(server)
			defer c.Close()
			type result struct {
				hb  HelloBody
				err error
			}
			done := make(chan result, 1)
			go func() {
				hb, err := c.Accept([]string{CapAdmin}, "tester")
				done <- result{hb, err}
			}()
			if _, err := client.Write(tc.first); err != nil {
				t.Fatal(err)
			}
			var resp Response
			if err := JSON.DecodeFrame(client, &resp); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if tc.refusedID != 0 {
				if resp.Code != CodeVersion || resp.ID != tc.refusedID || res.err == nil {
					t.Fatalf("reply %+v, Accept error %v; want a %s refusal on id %d", resp, res.err, CodeVersion, tc.refusedID)
				}
				return
			}
			if res.err != nil || !resp.OK || resp.Proto == nil {
				t.Fatalf("reply %+v, Accept error %v; want a granted hello", resp, res.err)
			}
			if resp.Proto.Version != ProtoVersion || res.hb.Version != ProtoVersion || res.hb.Client != "c" {
				t.Errorf("negotiated %d (Accept says %+v), want version %d for client c", resp.Proto.Version, res.hb, ProtoVersion)
			}
			if !HasCap(resp.Proto.Caps, CapAdmin) || !HasCap(resp.Proto.Caps, CapBinary) {
				t.Errorf("advertised %v; want admin and bin", resp.Proto.Caps)
			}
			// After the grant the connection speaks binary.
			go c.SendResponse(&Response{ID: 2, OK: true})
			var hdr [4]byte
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(client, payload); err != nil || payload[0] != binResponseTag {
				t.Errorf("first frame after the grant = %q (%v), want a binary response", payload, err)
			}
		})
	}
}

// The dialing half refuses, with a CodeVersion *HelloError, every
// reply it cannot speak the current protocol after: a v2 daemon's grant,
// a v3 daemon's (which never sends an open's notice), that of a daemon
// started without the binary codec, and a pre-versioned (v1) daemon's
// untyped error.
func TestDialRefusesOldPeers(t *testing.T) {
	for _, reply := range []Response{
		{OK: true, Proto: &HelloInfo{Version: 2, Caps: []string{CapAdmin, CapBinary}}},
		{OK: true, Proto: &HelloInfo{Version: 3, Caps: []string{CapAdmin, CapBinary}}},
		{OK: true, Proto: &HelloInfo{Version: ProtoVersion, Caps: []string{CapAdmin}}},
		{Err: `unknown op "hello"`},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			var env Envelope
			if JSON.DecodeFrame(nc, &env) == nil {
				resp := reply
				resp.ID = env.ID
				JSON.EncodeFrame(nc, resp)
			}
		}()
		_, _, err = Dial(context.Background(), ln.Addr().String(), 1,
			HelloBody{Version: ProtoVersion, Client: "c", Caps: []string{CapBinary}})
		var he *HelloError
		if !errors.As(err, &he) || he.Code != CodeVersion {
			t.Errorf("dial answered with %+v: %v, want a %s *HelloError", reply, err, CodeVersion)
		}
	}
}

// A second hello is refused with bad_request and the session carries
// on: the next request still reaches the dispatch.
func TestDuplicateHelloRefused(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	c := NewConn(server)
	defer c.Close()
	got := make(chan Envelope, 1)
	go func() {
		if _, err := c.Accept(nil, "tester"); err != nil {
			return
		}
		var env Envelope
		if err := c.ReadRequest(&env, func() { c.Flush() }); err == nil {
			got <- env
		}
	}()
	var resp Response
	for id := uint64(1); id <= 2; id++ {
		again := Envelope{ID: id, Op: OpHello, val: HelloBody{Version: ProtoVersion, Client: "c", Caps: []string{CapBinary}}}
		if err := Binary.EncodeFrame(client, again); err != nil {
			t.Fatal(err)
		}
		if err := Binary.DecodeFrame(client, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.ID != 2 || resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("duplicate hello answered with %+v, want bad_request on id 2", resp)
	}
	if err := Binary.EncodeFrame(client, Envelope{ID: 3, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if env := <-got; env.ID != 3 || env.Op != OpPing {
		t.Errorf("request after the refused hello = %+v, want the ping", env)
	}
}

// wire is a net.Conn over a byte buffer: what one Conn flushes, another
// reads back on the same goroutine, with no allocation of its own once
// the buffer has grown.
type wire struct {
	net.Conn // nil: only Read, Write and Close are used
	buf      bytes.Buffer
}

func (w *wire) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *wire) Read(p []byte) (int, error)  { return w.buf.Read(p) }
func (w *wire) Close() error                { return nil }

// The typed entry points frame an open and its answer without
// allocating, and reading them back allocates the request's two strings
// and nothing else — no envelope, response, header or scratch buffer —
// and not those either when the reader's Names holds them.
func TestConnHitFramesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	w := &wire{}
	out, in := NewConn(w), NewConn(w)
	req := NewFileEnvelope(7, OpOpen, FileBody{Context: "clim", File: "clim_out_00000042.nc"})
	resp := Response{ID: 7, OK: true, Available: true, EstWaitNs: 1500}
	send := func() {
		if err := out.EnqueueRequest(&req); err != nil {
			t.Fatal(err)
		}
		if err := out.EnqueueResponse(&resp); err != nil {
			t.Fatal(err)
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var gotReq Envelope
	var gotResp Response
	recv := func() {
		if err := in.ReadRequest(&gotReq, nil); err != nil {
			t.Fatal(err)
		}
		if err := in.ReadResponse(&gotResp); err != nil {
			t.Fatal(err)
		}
	}
	send() // grow both buffers once
	recv()
	if allocs := testing.AllocsPerRun(100, func() { send(); w.buf.Reset() }); allocs != 0 {
		t.Errorf("queueing and flushing a request and a response allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { send(); recv() }); allocs != 2 {
		t.Errorf("a request/response round trip allocates %.0f times, want 2 (context and file name)", allocs)
	}
	// A reader whose Names holds both strings — the daemon's name table —
	// copies neither.
	in.SetNames(func(ctx, file []byte) (string, string, int, bool) {
		if string(ctx) == "clim" && string(file) == "clim_out_00000042.nc" {
			return "clim", "clim_out_00000042.nc", 42, true
		}
		return "", "", 0, false
	})
	if allocs := testing.AllocsPerRun(100, func() { send(); recv() }); allocs != 0 {
		t.Errorf("with Names set, a request/response round trip allocates %.0f times, want 0", allocs)
	}
	if b, ok := gotReq.File(); !ok || b != (FileBody{Context: "clim", File: "clim_out_00000042.nc"}) ||
		gotReq.ID != 7 || gotReq.Op != OpOpen || gotReq.Step() != 42 {
		t.Errorf("request read back as %+v", gotReq)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("response read back as %+v, want %+v", gotResp, resp)
	}
}

// A frame that cannot be encoded — oversize here — leaves the frames
// queued before it untouched and queues nothing of itself; frames too
// large for the read buffer still arrive whole (the pooled path).
func TestConnEncodeFailureKeepsBufferedFrames(t *testing.T) {
	w := &wire{}
	out, in := NewConn(w), NewConn(w)
	first := NewFileEnvelope(1, OpOpen, FileBody{Context: "c", File: "f"})
	big := NewFileEnvelope(2, OpOpen, FileBody{Context: "c", File: strings.Repeat("x", readBufSize+100)})
	huge := NewFileEnvelope(3, OpOpen, FileBody{Context: "c", File: strings.Repeat("x", MaxFrame+1)})
	last := Response{ID: 4, Code: CodeBusy, Err: strings.Repeat("y", MaxFrame+1)}
	if err := out.EnqueueRequest(&first); err != nil {
		t.Fatal(err)
	}
	var fe *FrameError
	if err := out.EnqueueRequest(&huge); !errors.As(err, &fe) || fe.ID != 3 {
		t.Fatalf("oversize request queued with %v, want a FrameError naming id 3", err)
	}
	if err := out.EnqueueRequest(&big); err != nil {
		t.Fatal(err)
	}
	if err := out.SendResponse(&last); !errors.As(err, &fe) || fe.ID != 4 {
		t.Fatalf("oversize response sent with %v, want a FrameError naming id 4", err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*Envelope{&first, &big} {
		var got Envelope
		if err := in.ReadRequest(&got, nil); err != nil {
			t.Fatalf("reading request %d: %v", want.ID, err)
		}
		gb, _ := got.File()
		wb, _ := want.File()
		if got.ID != want.ID || gb != wb {
			t.Errorf("request %d read back as id %d, %d-byte file name", want.ID, got.ID, len(gb.File))
		}
	}
	var got Envelope
	if err := in.ReadRequest(&got, nil); err != io.EOF {
		t.Errorf("after the two good frames the stream holds more: %v, %+v", err, got)
	}
}

// A frame too large for the read buffer is decoded out of a pooled
// buffer, recycled once it is decoded: a name Names holds is its string,
// and one it does not is a copy that outlives the buffer.
func TestConnNamesPooledFrame(t *testing.T) {
	long := strings.Repeat("x", readBufSize+100)
	w := &wire{}
	out, in := NewConn(w), NewConn(w)
	in.SetNames(func(ctx, file []byte) (string, string, int, bool) {
		if string(ctx) == "c" && string(file) == long {
			return "c", long, 1, true
		}
		return "", "", 0, false
	})
	reqs := []FileBody{
		{Context: "c", File: long},
		{Context: "d", File: long},                                 // an unknown context: copied
		{Context: "c", File: strings.Repeat("y", readBufSize+100)}, // an unknown file: copied
		{Context: "c", File: strings.Repeat("z", readBufSize+100)}, // reuses the pooled buffer
	}
	for i, b := range reqs {
		env := NewFileEnvelope(uint64(i+1), OpRelease, b)
		if err := out.EnqueueRequest(&env); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []FileBody
	for range reqs {
		var env Envelope
		if err := in.ReadRequest(&env, nil); err != nil {
			t.Fatal(err)
		}
		b, _ := env.File()
		got = append(got, b)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Errorf("pooled frames read back as %d requests that differ from what was sent", len(got))
	}
	if unsafe.StringData(got[0].File) != unsafe.StringData(long) {
		t.Error("a pooled frame's file name held by Names was copied")
	}
}

// A stream that ends inside a frame is not a clean close.
func TestConnTruncatedFrame(t *testing.T) {
	var full bytes.Buffer
	if err := Binary.EncodeFrame(&full, mustEnvelope(t, 1, OpOpen, FileBody{Context: "c", File: "f"})); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < full.Len(); cut++ {
		w := &wire{}
		w.buf.Write(full.Bytes()[:cut])
		var env Envelope
		if err := NewConn(w).ReadRequest(&env, nil); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut after %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, full.Len(), err)
		}
	}
	var env Envelope
	if err := NewConn(&wire{}).ReadRequest(&env, nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

// The Conn entry points and the Binary codec are one encoder: for every
// frame in the committed fuzz corpora that decodes, as a request or as a
// response, both emit the same bytes.
func TestConnAndCodecEmitSameBytes(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no committed fuzz corpus: %v", err)
	}
	compared := 0
	for _, seed := range seeds {
		raw, err := os.ReadFile(seed)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a []byte corpus entry", seed)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		frame, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		w := &wire{}
		c := NewConn(w)
		var viaCodec bytes.Buffer
		var env Envelope
		var resp Response
		switch {
		case Binary.DecodeFrame(strings.NewReader(frame), &env) == nil:
			err = Binary.EncodeFrame(&viaCodec, env)
			if cerr := c.EnqueueRequest(&env); (cerr == nil) != (err == nil) {
				t.Fatalf("%s: Codec says %v, Conn says %v", seed, err, cerr)
			}
		case Binary.DecodeFrame(strings.NewReader(frame), &resp) == nil:
			err = Binary.EncodeFrame(&viaCodec, resp)
			if cerr := c.EnqueueResponse(&resp); (cerr == nil) != (err == nil) {
				t.Fatalf("%s: Codec says %v, Conn says %v", seed, err, cerr)
			}
		default:
			continue // the retired wait's opcode decodes as neither
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaCodec.Bytes(), w.buf.Bytes()) {
			t.Errorf("%s:\nCodec %x\nConn  %x", seed, viaCodec.Bytes(), w.buf.Bytes())
		}
		compared++
	}
	if compared < len(seeds)-1 {
		t.Errorf("only %d comparisons over %d seeds: the corpus decodes less than it should", compared, len(seeds))
	}
}

// ReadRequestForward offers its ForwardFunc every request with a routing
// context — a binary file op read no further than that context, a JSON
// op without an opcode decoded only to find it — as the client's bytes,
// and returns what the func declines. Hello and the opcoded ops sent as
// JSON are never offered: the reader refuses them itself.
func TestReadRequestForwardOffers(t *testing.T) {
	var open bytes.Buffer
	if err := Binary.EncodeFrame(&open, NewFileEnvelope(1, OpOpen, FileBody{Context: "c", File: "f"})); err != nil {
		t.Fatal(err)
	}
	stats := `{"op":"stats","id":2,"body":{"context":"c"}}`
	w := &wire{}
	w.buf.Write(open.Bytes())
	for _, p := range []string{
		stats,
		`{"id":3,"op":"quarantine-reset","body":{}}`, // declined: no context
		`{"id":4,"op":"hello","body":{"version":4,"client":"x","caps":["bin"]}}`,
		`{"id":5,"op":"open","body":{"context":"c","file":"f"}}`,
		`{"id":6,"op":"stats","body":"c"}`, // its routing body does not decode
	} {
		w.buf.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
		w.buf.WriteString(p)
	}
	type offer struct {
		op, ctx, payload string
		id               uint64
	}
	var offers []offer
	fwd := func(spec OpSpec, id uint64, ctx, payload []byte) bool {
		offers = append(offers, offer{spec.Name, string(ctx), string(payload), id})
		return len(ctx) > 0
	}
	c := NewConn(w)
	var got []uint64
	var env Envelope
	for c.ReadRequestForward(&env, nil, fwd) == nil {
		got = append(got, env.ID)
	}
	want := []offer{
		{OpOpen, "c", string(open.Bytes()[4:]), 1},
		{OpStats, "c", stats, 2},
		{OpQuarantineReset, "", `{"id":3,"op":"quarantine-reset","body":{}}`, 3},
	}
	if !reflect.DeepEqual(offers, want) {
		t.Errorf("offered %+v, want %+v", offers, want)
	}
	if !reflect.DeepEqual(got, []uint64{3, 6}) {
		t.Errorf("returned requests %v, want the declined 3 and the undecodable 6", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id   uint64
		code ErrCode
	}{{4, CodeBadRequest}, {5, CodeFrame}} {
		var resp Response
		if err := Binary.DecodeFrame(&w.buf, &resp); err != nil || resp.ID != want.id || resp.Code != want.code {
			t.Errorf("answered %+v (%v), want %s on id %d", resp, err, want.code, want.id)
		}
	}
}
