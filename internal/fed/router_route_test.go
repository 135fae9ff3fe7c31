package fed

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"simfs/internal/netproto"
)

// TestRouterDropsLargeStreamRoute: a subscribe larger than a
// connection's flush threshold leaves for the daemon while the router is
// still queueing it, so its terminal answer can be back before the
// router is done sending. The stream's relay is registered before the
// frame can leave, so the terminal frame always finds it to drop. The
// link here runs over a synchronous pipe to force that order: the daemon
// answers Done from the frame's first bytes and reads the rest — which
// is what lets the router's write return — only once the client has the
// Done.
func TestRouterDropsLargeStreamRoute(t *testing.T) {
	const addr = "daemon"
	client, front := net.Pipe()
	defer client.Close()
	sess := &rsession{c: netproto.NewConn(front), r: NewRouter([]string{addr}, 0, nil), client: "big",
		peers: map[string]*PeerConn{}}
	daemon, link := net.Pipe()
	defer daemon.Close()
	pc := startPeer(addr, netproto.NewConn(link), netproto.NewRelayPending(sess.c), sess.flush)
	defer pc.Close()
	sess.peers[addr] = pc

	clientHasDone := make(chan struct{})
	go func() {
		var head [6]byte // length, opcode, and the client's request ID: one varint byte
		if _, err := io.ReadFull(daemon, head[:]); err != nil {
			return
		}
		netproto.Binary.EncodeFrame(daemon, netproto.Response{ID: uint64(head[5]), OK: true, Done: true})
		<-clientHasDone
		io.CopyN(io.Discard, daemon, int64(binary.BigEndian.Uint32(head[:4]))-2)
	}()

	files := make([]string, 64)
	for i := range files {
		files[i] = strings.Repeat("x", 1000)
	}
	sub, _ := netproto.NewEnvelope(7, netproto.OpSubscribe, netproto.FilesBody{Context: "c", Files: files})
	var buf bytes.Buffer
	if err := netproto.Binary.EncodeFrame(&buf, sub); err != nil {
		t.Fatal(err)
	}
	spec := netproto.Ops[sub.Row()]
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		sess.r.forward(sess, spec, 7, []byte("c"), buf.Bytes()[4:])
	}()

	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp netproto.Response
	if err := netproto.Binary.DecodeFrame(client, &resp); err != nil {
		t.Fatal(err)
	}
	close(clientHasDone)
	if resp.ID != 7 || !resp.Done {
		t.Fatalf("client got %+v, want the stream's Done on id 7", resp)
	}
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("the router is still sending the subscribe")
	}
	if _, ok := pc.calls.Remove(7); ok {
		t.Error("the link still holds id 7 after the stream ended")
	}
}

// TestPeerCallTimeoutRemovesEntry: a fan-out call that times out against
// a member that never answers withdraws its registration, instead of
// holding the ID until the link dies.
func TestPeerCallTimeoutRemovesEntry(t *testing.T) {
	daemon, link := net.Pipe()
	defer daemon.Close()
	go io.Copy(io.Discard, daemon) // reads every request, answers none
	pc := startPeer("mute", netproto.NewConn(link), netproto.NewPending(), nil)
	defer pc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	const id = 41
	if _, err := pc.Call(ctx, id, netproto.OpContexts, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call against a mute member = %v, want the deadline", err)
	}
	if _, ok := pc.calls.Remove(id); ok {
		t.Error("the timed-out call's entry is still in the link's table")
	}
}
