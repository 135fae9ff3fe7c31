package fed_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// The byte-transparency contract of the router: a binary request crosses
// it with only its request ID changed, and so does every binary answer
// on the way back. The test speaks raw frames on both sides — as a
// client in front of the router and as a scripted daemon behind it — so
// it sees every byte either end sends.

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

// splitID takes a binary request or response payload apart at its
// request ID: [tag][id uvarint][rest].
func splitID(t *testing.T, p []byte) (tag byte, id uint64, rest []byte) {
	t.Helper()
	id, n := binary.Uvarint(p[1:])
	if n <= 0 {
		t.Fatalf("payload %x carries no request id", p)
	}
	return p[0], id, p[1+n:]
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
// by request: what the daemon receives is the client's payload with the
// peer link's request ID in place of the client's, and what the client
// receives is the daemon's payload under its own ID again. The client
// IDs are wider varints than the link's, so every frame is re-framed
// with a new length. JSON frames are decoded and re-encoded: they must
// arrive equal once decoded. Malformed requests are refused by the
// router on the client's ID as far as it reads them (opcode, ID,
// context) and relayed as they are past that point.
func TestFederationRelayIsByteTransparent(t *testing.T) {
	daddr, links := rawDaemon(t)
	_, raddr := startRouter(t, daddr)
	client := rawClient(t, raddr)
	var link net.Conn

	// send has the client send payload and returns what the daemon
	// receives for it.
	send := func(payload []byte) []byte {
		t.Helper()
		if _, err := client.Write(frame(payload)); err != nil {
			t.Fatal(err)
		}
		if link == nil {
			select {
			case link = <-links:
			case <-time.After(5 * time.Second):
				t.Fatal("the router never dialed the daemon")
			}
		}
		return readPayload(t, link)
	}
	// forwarded has the client send req and returns the link's ID for
	// it, checking the daemon received the client's bytes but the ID.
	forwarded := func(what string, req []byte) uint64 {
		t.Helper()
		got := send(req)
		tag, clientID, rest := splitID(t, req)
		gotTag, peerID, gotRest := splitID(t, got)
		if gotTag != tag || !bytes.Equal(gotRest, rest) || peerID == clientID {
			t.Fatalf("%s: the daemon received %x for the client's %x; want the same bytes under a link id", what, got, req)
		}
		return peerID
	}
	// answered has the daemon send resp and checks that the client
	// receives the same bytes under clientID.
	answered := func(what string, resp netproto.Response, clientID uint64) {
		t.Helper()
		sent := encoded(t, resp)
		if _, err := link.Write(frame(sent)); err != nil {
			t.Fatal(err)
		}
		got := readPayload(t, client)
		tag, _, rest := splitID(t, sent)
		gotTag, gotID, gotRest := splitID(t, got)
		if gotTag != tag || gotID != clientID || !bytes.Equal(gotRest, rest) {
			t.Fatalf("%s: the client received %x for the daemon's %x; want the same bytes under id %d", what, got, sent, clientID)
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
	peerID := forwarded("open", file(300, netproto.OpOpen))
	answered("open hit", netproto.Response{ID: peerID, OK: true, Available: true, EstWaitNs: 1500, Done: true}, 300)

	// A miss, answered twice: at once, and by its notice. The notice ends
	// the relay: a late frame under its ID goes nowhere.
	peerID = forwarded("open", file(1<<35, netproto.OpOpen))
	answered("open miss", netproto.Response{ID: peerID, OK: true, EstWaitNs: 1500}, 1<<35)
	answered("notice", netproto.Response{ID: peerID, OK: true, Ready: true, Done: true}, 1<<35)
	if _, err := link.Write(frame(encoded(t, netproto.Response{ID: peerID, OK: true, Ready: true, Done: true}))); err != nil {
		t.Fatal(err)
	}

	// A stream: per-file ready frames, then Done. Once Done has passed,
	// the link forgets the ID: a late frame under it goes nowhere.
	sub, _ := netproto.NewEnvelope(1<<40, netproto.OpSubscribe, netproto.FilesBody{Context: "c", Files: []string{"a", "b"}})
	subID := forwarded("subscribe", encoded(t, sub))
	answered("ready a", netproto.Response{ID: subID, OK: true, Ready: true, File: "a"}, 1<<40)
	answered("ready b", netproto.Response{ID: subID, OK: true, Ready: true, File: "b"}, 1<<40)
	answered("done", netproto.Response{ID: subID, OK: true, Done: true}, 1<<40)
	if _, err := link.Write(frame(encoded(t, netproto.Response{ID: subID, OK: true, Ready: true, File: "late"}))); err != nil {
		t.Fatal(err)
	}

	// An error with the quarantine details.
	peerID = forwarded("release", file(77, netproto.OpRelease))
	answered("failed release", netproto.Response{ID: peerID, Code: netproto.CodeFailed,
		Err: "re-simulation failed", Attempts: 3, RetryAfterNs: int64(5 * time.Second)}, 77)

	// A JSON-bodied request and its rich answer, decoded and re-encoded.
	info, _ := netproto.NewEnvelope(301, netproto.OpContextInfo, netproto.CtxBody{Context: "c"})
	var sentEnv, gotEnv netproto.Envelope
	if err := json.Unmarshal(encoded(t, info), &sentEnv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(send(encoded(t, info)), &gotEnv); err != nil {
		t.Fatal(err)
	}
	if gotEnv.Op != sentEnv.Op || !bytes.Equal(gotEnv.Body, sentEnv.Body) {
		t.Fatalf("ctxinfo reached the daemon as %+v, want %+v but the id", gotEnv, sentEnv)
	}
	rich := netproto.Response{ID: gotEnv.ID, OK: true, Info: &netproto.ContextInfo{Name: "c", DeltaD: 1, Timesteps: 64}}
	if _, err := link.Write(frame(encoded(t, rich))); err != nil {
		t.Fatal(err)
	}
	var gotRich netproto.Response
	if err := json.Unmarshal(readPayload(t, client), &gotRich); err != nil {
		t.Fatal(err)
	}
	if rich.ID = 301; !reflect.DeepEqual(gotRich, rich) {
		t.Fatalf("rich answer reached the client as %+v, want %+v", gotRich, rich)
	}

	// Malformed requests: what the router reads to route — opcode, ID,
	// context — it refuses itself; the rest is the daemon's to refuse.
	refused("unknown opcode", []byte{0x7F, 0xAC, 0x02}, 300)
	refused("truncated id", []byte{0x01, 0x80}, 0)
	refused("truncated context", []byte{0x01, 0xAD, 0x02, 5, 'c', 'x'}, 301)
	truncFile := []byte{0x01, 0xAE, 0x02, 1, 'c', 9, 'x'}
	peerID = forwarded("truncated file", truncFile) // nothing refused above reached the daemon
	answered("truncated file", netproto.Response{ID: peerID, Code: netproto.CodeFrame,
		Err: "binary request: truncated file"}, 302)

	// A binary answer whose ID is valid but whose fields are truncated
	// fails the link, and the relay receives its terminal draining frame,
	// flushed.
	peerID = forwarded("open", file(400, netproto.OpOpen))
	truncated := append([]byte{0xB1}, binary.AppendUvarint(nil, peerID)...)
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
