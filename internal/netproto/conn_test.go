package netproto

import (
	"net"
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
