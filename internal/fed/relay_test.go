package fed_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// The byte-transparency contract of the router: every request with an
// owner crosses it byte for byte, binary or JSON, request ID included,
// and so does every answer on the way back. The test speaks raw frames
// on both sides — as a client in front of the router and as a scripted
// daemon behind it — so it sees every byte either end sends.

// frame wraps a payload in its length header.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// encoded is the payload the binary codec frames v (an Envelope or a
// Response) into.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netproto.Binary.EncodeFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[4:]
}

// readPayload reads one frame off c and returns its payload.
func readPayload(t *testing.T, c net.Conn) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading a frame header: %v", err)
	}
	p := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c, p); err != nil {
		t.Fatalf("reading a frame payload: %v", err)
	}
	return p
}

// rawHello runs the dialing half of the handshake on c as client.
func rawHello(t *testing.T, c net.Conn, client string) {
	t.Helper()
	hello, _ := netproto.NewEnvelope(1, netproto.OpHello, netproto.HelloBody{
		Version: netproto.ProtoVersion, Client: client, Caps: []string{netproto.CapBinary}})
	if _, err := c.Write(frame(encoded(t, hello))); err != nil {
		t.Fatal(err)
	}
	var grant netproto.Response
	if err := json.Unmarshal(readPayload(t, c), &grant); err != nil || !grant.OK {
		t.Fatalf("hello answered with %+v, %v", grant, err)
	}
}

// exchange sends one request on a raw binary session and reads the next
// frame.
func exchange(c net.Conn, id uint64, op string, body any) (netproto.Response, error) {
	env, _ := netproto.NewEnvelope(id, op, body)
	var resp netproto.Response
	if err := netproto.Binary.EncodeFrame(c, env); err != nil {
		return resp, err
	}
	err := netproto.Binary.DecodeFrame(c, &resp)
	return resp, err
}

// rawDaemon is a scripted daemon: it grants the hello of every link the
// router dials and hands the link over, to be read and written by the
// test itself.
func rawDaemon(t *testing.T) (addr string, links <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	ch := make(chan net.Conn, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			var hello netproto.Envelope
			if netproto.Binary.DecodeFrame(c, &hello) != nil {
				continue
			}
			netproto.Binary.EncodeFrame(c, netproto.Response{ID: hello.ID, OK: true, Proto: &netproto.HelloInfo{
				Version: netproto.ProtoVersion, Caps: []string{netproto.CapBinary}}})
			select {
			case ch <- c:
			default: // nobody is waiting for more links
			}
		}
	}()
	return ln.Addr().String(), ch
}

// rawClient dials addr and completes the hello.
func rawClient(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rawHello(t, c, "raw-client")
	return c
}

// TestFederationRelayIsByteTransparent pins the relay contract request
// by request: the daemon receives the client's payload byte for byte,
// binary and JSON alike, under the client's own request ID, and the
// client receives the daemon's answers byte for byte. Malformed
// requests are refused by the router on the client's ID as far as it
// reads them (opcode, ID, context) and relayed as they are past that
// point.
func TestFederationRelayIsByteTransparent(t *testing.T) {
	daddr, links := rawDaemon(t)
	_, raddr := startRouter(t, daddr)
	client := rawClient(t, raddr)
	var link net.Conn

	// forwarded has the client send req and checks that the daemon
	// receives the same bytes.
	forwarded := func(what string, req []byte) {
		t.Helper()
		if _, err := client.Write(frame(req)); err != nil {
			t.Fatal(err)
		}
		if link == nil {
			select {
			case link = <-links:
			case <-time.After(5 * time.Second):
				t.Fatal("the router never dialed the daemon")
			}
		}
		if got := readPayload(t, link); !bytes.Equal(got, req) {
			t.Fatalf("%s: the daemon received %x for the client's %x", what, got, req)
		}
	}
	// answered has the daemon send resp and checks that the client
	// receives the same bytes.
	answered := func(what string, resp netproto.Response) {
		t.Helper()
		sent := encoded(t, resp)
		if _, err := link.Write(frame(sent)); err != nil {
			t.Fatal(err)
		}
		if got := readPayload(t, client); !bytes.Equal(got, sent) {
			t.Fatalf("%s: the client received %x for the daemon's %x", what, got, sent)
		}
	}
	// refused checks that the router itself answers bad_frame on id.
	refused := func(what string, req []byte, id uint64) {
		t.Helper()
		if _, err := client.Write(frame(req)); err != nil {
			t.Fatal(err)
		}
		var resp netproto.Response
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := netproto.Binary.DecodeFrame(client, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || resp.Code != netproto.CodeFrame {
			t.Fatalf("%s: answered with %+v, want bad_frame on id %d", what, resp, id)
		}
	}
	file := func(id uint64, op string) []byte {
		return encoded(t, netproto.NewFileEnvelope(id, op, netproto.FileBody{Context: "c", File: "c_out_00000003.nc"}))
	}

	// A hit, answered once.
	forwarded("open", file(300, netproto.OpOpen))
	answered("open hit", netproto.Response{ID: 300, OK: true, Available: true, EstWaitNs: 1500, Done: true})

	// A miss, answered twice: at once, and by its notice. The notice ends
	// the relay: a late frame under its ID goes nowhere.
	forwarded("open", file(1<<35, netproto.OpOpen))
	answered("open miss", netproto.Response{ID: 1 << 35, OK: true, EstWaitNs: 1500})
	answered("notice", netproto.Response{ID: 1 << 35, OK: true, Ready: true, Done: true})
	if _, err := link.Write(frame(encoded(t, netproto.Response{ID: 1 << 35, OK: true, Ready: true, Done: true}))); err != nil {
		t.Fatal(err)
	}

	// A stream: per-file ready frames, then Done. Once Done has passed,
	// the link forgets the ID: a late frame under it goes nowhere.
	sub, _ := netproto.NewEnvelope(1<<40, netproto.OpSubscribe, netproto.FilesBody{Context: "c", Files: []string{"a", "b"}})
	forwarded("subscribe", encoded(t, sub))
	answered("ready a", netproto.Response{ID: 1 << 40, OK: true, Ready: true, File: "a"})
	answered("ready b", netproto.Response{ID: 1 << 40, OK: true, Ready: true, File: "b"})
	answered("done", netproto.Response{ID: 1 << 40, OK: true, Done: true})
	if _, err := link.Write(frame(encoded(t, netproto.Response{ID: 1 << 40, OK: true, Ready: true, File: "late"}))); err != nil {
		t.Fatal(err)
	}

	// An error with the quarantine details.
	forwarded("release", file(77, netproto.OpRelease))
	answered("failed release", netproto.Response{ID: 77, Code: netproto.CodeFailed,
		Err: "re-simulation failed", Attempts: 3, RetryAfterNs: int64(5 * time.Second)})

	// A JSON-bodied request and its rich answer, both JSON on the wire.
	info, _ := netproto.NewEnvelope(301, netproto.OpContextInfo, netproto.CtxBody{Context: "c"})
	forwarded("ctxinfo", encoded(t, info))
	answered("rich answer", netproto.Response{ID: 301, OK: true, Info: &netproto.ContextInfo{Name: "c", DeltaD: 1, Timesteps: 64}})
	// A JSON-bodied request crosses as the client sent it, too: keys in
	// the client's order, not the order an encoder would write.
	forwarded("stats", []byte(`{"op":"stats","id":303,"body":{"context":"c"}}`))
	answered("stats", netproto.Response{ID: 303, OK: true})

	// Malformed requests: what the router reads to route — opcode, ID,
	// context — it refuses itself; the rest is the daemon's to refuse.
	refused("unknown opcode", []byte{0x7F, 0xAC, 0x02}, 300)
	refused("truncated id", []byte{0x01, 0x80}, 0)
	refused("truncated context", []byte{0x01, 0xAD, 0x02, 5, 'c', 'x'}, 301)
	forwarded("truncated file", []byte{0x01, 0xAE, 0x02, 1, 'c', 9, 'x'}) // nothing refused above reached the daemon
	answered("truncated file", netproto.Response{ID: 302, Code: netproto.CodeFrame,
		Err: "binary request: truncated file"})

	// A binary answer whose ID is valid but whose fields are truncated
	// fails the link, and the relay receives its terminal draining frame,
	// flushed.
	forwarded("open", file(400, netproto.OpOpen))
	truncated := append([]byte{0xB1}, binary.AppendUvarint(nil, 400)...)
	if _, err := link.Write(frame(append(truncated, 1<<5, 0, 9, 'x'))); err != nil { // rfFile, then a 9-byte file of 1
		t.Fatal(err)
	}
	var lost netproto.Response
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(client, &lost); err != nil {
		t.Fatalf("no answer after the link failed: %v", err)
	}
	if lost.ID != 400 || lost.Code != netproto.CodeDraining || !lost.Done {
		t.Fatalf("after a truncated answer the client got %+v, want a terminal draining frame on id 400", lost)
	}
}

// TestFederationUnsubscribeEndsRelay: once the daemon has acked a
// stream's unsubscribe, the link no longer relays the stream, so the
// link's loss sends the client nothing on the canceled ID.
func TestFederationUnsubscribeEndsRelay(t *testing.T) {
	daddr, links := rawDaemon(t)
	_, raddr := startRouter(t, daddr)
	client := rawClient(t, raddr)
	var link net.Conn
	// received has the client send env and returns what the daemon
	// receives for it.
	received := func(env netproto.Envelope) netproto.Envelope {
		t.Helper()
		if err := netproto.Binary.EncodeFrame(client, env); err != nil {
			t.Fatal(err)
		}
		if link == nil {
			select {
			case link = <-links:
			case <-time.After(5 * time.Second):
				t.Fatal("the router never dialed the daemon")
			}
		}
		var got netproto.Envelope
		link.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := netproto.Binary.DecodeFrame(link, &got); err != nil || got.Op != env.Op {
			t.Fatalf("the daemon received %+v, %v; want the %s", got, err, env.Op)
		}
		return got
	}

	sub, _ := netproto.NewEnvelope(7, netproto.OpSubscribe, netproto.FilesBody{Context: "c", Files: []string{"a"}})
	received(sub)
	// The router acks the client's unsubscribe itself and tells the link.
	if resp, err := exchange(client, 8, netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: 7}); err != nil || resp.ID != 8 || !resp.OK {
		t.Fatalf("unsubscribe answered with %+v, %v", resp, err)
	}
	var unsub netproto.Envelope
	link.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(link, &unsub); err != nil || unsub.Op != netproto.OpUnsubscribe {
		t.Fatalf("the daemon received %+v, %v; want the unsubscribe", unsub, err)
	}
	// The daemon acks, as it does, and sends nothing more for the stream;
	// the answer to a later open, behind the ack on the link, tells the
	// client the router has read the ack.
	open := received(netproto.NewFileEnvelope(9, netproto.OpOpen, netproto.FileBody{Context: "c", File: "c_out_00000003.nc"}))
	for _, resp := range []netproto.Response{{ID: unsub.ID, OK: true}, {ID: open.ID, OK: true, Available: true, Done: true}} {
		if err := netproto.Binary.EncodeFrame(link, resp); err != nil {
			t.Fatal(err)
		}
	}
	var resp netproto.Response
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(client, &resp); err != nil || resp.ID != 9 {
		t.Fatalf("the open answered %+v, %v; want its hit on id 9", resp, err)
	}

	link.Close()
	client.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if err := netproto.Binary.DecodeFrame(client, &resp); err == nil {
		t.Fatalf("after the unsubscribe was acked the link's loss sent the client %+v", resp)
	}
}

// TestFederationDuplicateIDRefused: a request under an ID still in
// flight on the link is answered bad_request on that ID, and the daemon
// receives only the first.
func TestFederationDuplicateIDRefused(t *testing.T) {
	daddr, links := rawDaemon(t)
	_, raddr := startRouter(t, daddr)
	client := rawClient(t, raddr)

	open := netproto.NewFileEnvelope(5, netproto.OpOpen, netproto.FileBody{Context: "c", File: "c_out_00000003.nc"})
	if err := netproto.Binary.EncodeFrame(client, open); err != nil {
		t.Fatal(err)
	}
	var link net.Conn
	select {
	case link = <-links:
	case <-time.After(5 * time.Second):
		t.Fatal("the router never dialed the daemon")
	}
	var got netproto.Envelope
	link.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(link, &got); err != nil || got.Op != netproto.OpOpen {
		t.Fatalf("the daemon received %+v, %v; want the open", got, err)
	}

	// The open is still unanswered: the same ID again is refused.
	if err := netproto.Binary.EncodeFrame(client, open); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := netproto.Binary.DecodeFrame(client, &resp); err != nil {
		t.Fatalf("no answer to a second request under live id 5: %v", err)
	}
	if resp.ID != 5 || resp.Code != netproto.CodeBadRequest {
		t.Fatalf("a second request under live id 5 answered %+v, want bad_request on id 5", resp)
	}
	// The first is still relayed, and the daemon got nothing more.
	if err := netproto.Binary.EncodeFrame(link, netproto.Response{ID: got.ID, OK: true, Available: true, Done: true}); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(client, &resp); err != nil || resp.ID != 5 || !resp.Available {
		t.Fatalf("the first open answered %+v, %v; want its hit on id 5", resp, err)
	}
	link.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var extra [1]byte
	if n, _ := link.Read(extra[:]); n > 0 {
		t.Fatal("the daemon received the duplicate request")
	}
}

// TestFederationRelayedBadFrame: a request the router forwards whose
// file is truncated reaches a real daemon as it is, and the daemon's
// bad_frame comes back on the client's ID.
func TestFederationRelayedBadFrame(t *testing.T) {
	_, addr := newFedStack(t, "seed", nil)
	_, raddr := startRouter(t, addr)
	client := rawClient(t, raddr)
	if _, err := client.Write(frame([]byte{0x01, 0xAE, 0x02, 4, 's', 'e', 'e', 'd', 9, 'x'})); err != nil {
		t.Fatal(err)
	}
	var resp netproto.Response
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := netproto.Binary.DecodeFrame(client, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 302 || resp.Code != netproto.CodeFrame {
		t.Fatalf("a truncated file through the router answered with %+v, want the daemon's bad_frame on id 302", resp)
	}
}
