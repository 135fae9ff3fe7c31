package fed

import (
	"context"
	"errors"
	"fmt"
	"time"

	"simfs/internal/netproto"
)

// dialTimeout bounds how long a peer dial (TCP connect + hello
// round-trip) may block the calling dispatch path.
const dialTimeout = 2 * time.Second

// peerCaps is what a federation link requests in its hello: everything
// a daemon can grant, the binary codec every session speaks included.
var peerCaps = []string{netproto.CapAdmin, netproto.CapWatch,
	netproto.CapPreempt, netproto.CapBinary}

// PeerConn is one link from a router session to a member daemon: a
// netproto.Conn for the framing and write batching, a netproto.Pending
// for the request IDs and the reply demux, and a read loop joining the
// two. The binary codec and reply coalescing make this the same fast
// path a batching client uses. The link relays: every request on it
// carries the client's own request ID, and its table copies the answers
// to forwarded requests onto the client's connection as they arrive
// (netproto.NewRelayPending).
//
// A PeerConn is single-use: once the connection dies, every pending
// handler and relay receives a synthesized terminal draining response
// and the link reports Broken. Owners drop broken links and dial fresh
// ones.
type PeerConn struct {
	addr  string
	c     *netproto.Conn
	calls *netproto.Pending
}

// dialPeer connects to a member daemon over the request table calls and
// completes the hello handshake as clientName. onBatch, when set, runs
// after the read loop drains a batch of response frames (the router
// flushes the client session there).
func dialPeer(addr, clientName string, calls *netproto.Pending, onBatch func()) (*PeerConn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	c, _, err := netproto.Dial(ctx, addr, calls.NextID(), netproto.HelloBody{
		Version: netproto.ProtoVersion, Client: clientName, Caps: peerCaps})
	if err != nil {
		return nil, fmt.Errorf("fed: peer %s: %w", addr, err)
	}
	return startPeer(addr, c, calls, onBatch), nil
}

// startPeer runs the read loop of a link whose handshake is done.
func startPeer(addr string, c *netproto.Conn, calls *netproto.Pending, onBatch func()) *PeerConn {
	pc := &PeerConn{addr: addr, c: c, calls: calls}
	go func() { pc.fail(calls.Serve(c, onBatch)) }()
	return pc
}

// Broken reports whether the connection has died. Pending handlers
// have already been failed; the owner should dial a replacement.
func (pc *PeerConn) Broken() bool { return pc.calls.Failed() }

// Close tears the connection down, failing all pending handlers.
func (pc *PeerConn) Close() { pc.fail(errors.New("connection closed")) }

// fail marks the link broken and synthesizes a terminal draining
// response for every pending request, so proxied clients see the same
// structured error a gracefully shutting-down daemon would send.
func (pc *PeerConn) fail(cause error) {
	pc.c.Close()
	pc.calls.Fail(netproto.Response{Code: netproto.CodeDraining,
		Err: fmt.Sprintf("federation peer %s lost: %v", pc.addr, cause), Done: true})
}

// unsubscribe sends an unsubscribe of stream subID under the client's
// request id. The member's ack ends the link's relay of subID, if the
// link relays it as a stream an unsubscribe ends: the daemon produces
// nothing for a stream once it has acked its unsubscribe.
func (pc *PeerConn) unsubscribe(id, subID uint64) {
	calls := pc.calls
	if calls.AddAt(id, netproto.ResponseFunc(func(netproto.Response) { calls.Unsubscribed(subID) })) != nil {
		return
	}
	env := newEnv(id, netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: subID})
	if pc.c.EnqueueRequest(&env) != nil {
		calls.Remove(id)
	}
}

// Flush writes every buffered request frame in one syscall.
func (pc *PeerConn) Flush() error {
	if err := pc.c.Flush(); err != nil {
		pc.fail(err)
		return fmt.Errorf("fed: write to %s: %w", pc.addr, err)
	}
	return nil
}

// Call round-trips one request synchronously under the client's
// request id: a control-plane call of a router fan-out, decoded at both
// ends. (A client's request the router relays takes no handler: see
// Router.send.) Transport failures, an id still in flight on the link
// (netproto.ErrInFlight) and a ctx done first surface as the error;
// application failures ride the response's Code.
func (pc *PeerConn) Call(ctx context.Context, id uint64, op string, body any) (netproto.Response, error) {
	ch := make(chan netproto.Response, 1)
	if err := pc.calls.AddAt(id, netproto.ResponseFunc(func(resp netproto.Response) { ch <- resp })); err != nil {
		return netproto.Response{}, fmt.Errorf("fed: peer %s: %w", pc.addr, err)
	}
	env := newEnv(id, op, body)
	if err := pc.c.EnqueueRequest(&env); err != nil {
		pc.calls.Remove(id)
		return netproto.Response{}, fmt.Errorf("fed: encode for %s: %w", pc.addr, err)
	}
	if err := pc.Flush(); err != nil {
		return netproto.Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		pc.calls.Remove(id)
		return netproto.Response{}, fmt.Errorf("fed: call %s on %s: %w", op, pc.addr, ctx.Err())
	}
}

// newEnv builds a typed envelope; NewEnvelope's error return is
// documented always-nil.
func newEnv(id uint64, op string, body any) netproto.Envelope {
	env, _ := netproto.NewEnvelope(id, op, body)
	return env
}
