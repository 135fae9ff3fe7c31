package netproto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestAcceptHandshake drives the accepting half of the handshake — the
// one implementation behind the daemon and the router — over an
// in-memory pipe, one first frame per case.
func TestAcceptHandshake(t *testing.T) {
	hello := func(version int, caps ...string) Envelope {
		return Envelope{ID: 1, Op: OpHello, val: HelloBody{Version: version, Client: "c", Caps: caps}}
	}
	cases := []struct {
		name        string
		first       any
		allowBinary bool
		// refusal: the reply's code and id; Accept must fail.
		refused ErrCode
		id      uint64
		// success: negotiated version, advertised CapBinary, codec flip.
		version    int
		advertised bool
		binary     bool
	}{
		{name: "no hello", first: Envelope{ID: 7, Op: OpPing}, allowBinary: true, refused: CodeVersion, id: 7},
		{name: "v1 client", first: LegacyRequest{ID: 7, Op: OpPing, Client: "old"}, allowBinary: true, refused: CodeVersion, id: 7},
		{name: "below min", first: hello(MinProtoVersion - 1), allowBinary: true, refused: CodeVersion, id: 1},
		{name: "above max is clamped", first: hello(ProtoVersion + 5), allowBinary: true,
			version: ProtoVersion, advertised: true},
		{name: "bin asked and allowed", first: hello(ProtoVersion, CapBinary), allowBinary: true,
			version: ProtoVersion, advertised: true, binary: true},
		{name: "bin asked but denied", first: hello(ProtoVersion, CapBinary), allowBinary: false,
			version: ProtoVersion},
		{name: "bin allowed but not asked", first: hello(ProtoVersion, CapAdmin), allowBinary: true,
			version: ProtoVersion, advertised: true},
		{name: "bin asked at v2", first: hello(2, CapBinary), allowBinary: true,
			version: 2, advertised: true},
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
				hb, err := c.Accept([]string{CapAdmin}, tc.allowBinary, "tester")
				done <- result{hb, err}
			}()
			if err := JSON.EncodeFrame(client, tc.first); err != nil {
				t.Fatal(err)
			}
			var resp Response
			if err := JSON.DecodeFrame(client, &resp); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if tc.refused != "" {
				if resp.Code != tc.refused || resp.ID != tc.id || res.err == nil {
					t.Fatalf("reply %+v, Accept error %v; want a %s refusal on the request's id", resp, res.err, tc.refused)
				}
				return
			}
			if res.err != nil || !resp.OK || resp.Proto == nil {
				t.Fatalf("reply %+v, Accept error %v; want a granted hello", resp, res.err)
			}
			if resp.Proto.Version != tc.version || res.hb.Version != tc.version || res.hb.Client != "c" {
				t.Errorf("negotiated %d (Accept says %+v), want version %d for client c", resp.Proto.Version, res.hb, tc.version)
			}
			if !HasCap(resp.Proto.Caps, CapAdmin) || HasCap(resp.Proto.Caps, CapBinary) != tc.advertised {
				t.Errorf("advertised %v; want admin, and bin = %v", resp.Proto.Caps, tc.advertised)
			}
			if (c.Codec() == Binary) != tc.binary {
				t.Errorf("codec after handshake = %s, want binary = %v", c.Codec().Name(), tc.binary)
			}
		})
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
		if _, err := c.Accept(nil, false, "tester"); err != nil {
			return
		}
		var env Envelope
		if err := c.ReadRequest(&env, func() { c.Flush() }); err == nil {
			got <- env
		}
	}()
	var resp Response
	for id := uint64(1); id <= 2; id++ {
		again := Envelope{ID: id, Op: OpHello, val: HelloBody{Version: ProtoVersion, Client: "c"}}
		if err := JSON.EncodeFrame(client, again); err != nil {
			t.Fatal(err)
		}
		if err := JSON.DecodeFrame(client, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.ID != 2 || resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("duplicate hello answered with %+v, want bad_request on id 2", resp)
	}
	if err := JSON.EncodeFrame(client, Envelope{ID: 3, Op: OpPing}); err != nil {
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

// binConn frames w with the binary codec, as after a handshake.
func binConn(w *wire) *Conn {
	c := NewConn(w)
	c.bin = true
	return c
}

// The typed entry points frame an open and its answer without
// allocating, and reading them back allocates the request's two strings
// and nothing else — no envelope, response, header or scratch buffer.
func TestConnHitFramesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	w := &wire{}
	out, in := binConn(w), binConn(w)
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
	if b, ok := gotReq.File(); !ok || b != (FileBody{Context: "clim", File: "clim_out_00000042.nc"}) ||
		gotReq.ID != 7 || gotReq.Op != OpOpen {
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
	for _, bin := range []bool{false, true} {
		w := &wire{}
		out, in := NewConn(w), NewConn(w)
		out.bin, in.bin = bin, bin
		first := NewFileEnvelope(1, OpOpen, FileBody{Context: "c", File: "f"})
		big := NewFileEnvelope(2, OpOpen, FileBody{Context: "c", File: strings.Repeat("x", readBufSize+100)})
		huge := NewFileEnvelope(3, OpOpen, FileBody{Context: "c", File: strings.Repeat("x", MaxFrame+1)})
		last := Response{ID: 4, Code: CodeBusy, Err: strings.Repeat("y", MaxFrame+1)}
		if err := out.EnqueueRequest(&first); err != nil {
			t.Fatal(err)
		}
		var fe *FrameError
		if err := out.EnqueueRequest(&huge); !errors.As(err, &fe) || fe.ID != 3 {
			t.Fatalf("bin=%v: oversize request queued with %v, want a FrameError naming id 3", bin, err)
		}
		if err := out.EnqueueRequest(&big); err != nil {
			t.Fatal(err)
		}
		if err := out.SendResponse(&last); !errors.As(err, &fe) || fe.ID != 4 {
			t.Fatalf("bin=%v: oversize response sent with %v, want a FrameError naming id 4", bin, err)
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []*Envelope{&first, &big} {
			var got Envelope
			if err := in.ReadRequest(&got, nil); err != nil {
				t.Fatalf("bin=%v: reading request %d: %v", bin, want.ID, err)
			}
			var gb, wb FileBody
			if err := got.Decode(&gb); err != nil {
				t.Fatal(err)
			}
			_ = want.Decode(&wb)
			if got.ID != want.ID || gb != wb {
				t.Errorf("bin=%v: request %d read back as id %d, %d-byte file name", bin, want.ID, got.ID, len(gb.File))
			}
		}
		var got Envelope
		if err := in.ReadRequest(&got, nil); err != io.EOF {
			t.Errorf("bin=%v: after the two good frames the stream holds more: %v, %+v", bin, err, got)
		}
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
		if err := binConn(w).ReadRequest(&env, nil); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut after %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, full.Len(), err)
		}
	}
	var env Envelope
	if err := binConn(&wire{}).ReadRequest(&env, nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

// The Conn entry points and the Codec are one encoder: for every frame
// in the committed fuzz corpora that decodes, as a request or as a
// response, on either codec, both emit the same bytes.
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
		for _, codec := range []Codec{JSON, Binary} {
			w := &wire{}
			c := NewConn(w)
			c.bin = codec == Binary
			var viaCodec bytes.Buffer
			var env Envelope
			var resp Response
			switch {
			case codec.DecodeFrame(strings.NewReader(frame), &env) == nil:
				err = codec.EncodeFrame(&viaCodec, env)
				if cerr := c.EnqueueRequest(&env); (cerr == nil) != (err == nil) {
					t.Fatalf("%s (%s): Codec says %v, Conn says %v", seed, codec.Name(), err, cerr)
				}
			case codec.DecodeFrame(strings.NewReader(frame), &resp) == nil:
				err = codec.EncodeFrame(&viaCodec, resp)
				if cerr := c.EnqueueResponse(&resp); (cerr == nil) != (err == nil) {
					t.Fatalf("%s (%s): Codec says %v, Conn says %v", seed, codec.Name(), err, cerr)
				}
			default:
				continue // garbage seeds decode as neither
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaCodec.Bytes(), w.buf.Bytes()) {
				t.Errorf("%s (%s):\nCodec %x\nConn  %x", seed, codec.Name(), viaCodec.Bytes(), w.buf.Bytes())
			}
			compared++
		}
	}
	if compared < len(seeds) {
		t.Errorf("only %d comparisons over %d seeds: the corpus decodes less than it should", compared, len(seeds))
	}
}
