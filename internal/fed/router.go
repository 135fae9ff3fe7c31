package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"simfs/internal/netproto"
)

// Router is the federation front-end: it speaks the ordinary client
// protocol (hello handshake, binary codec, reply coalescing) and
// forwards every op with an owner to the daemon owning its context on
// the consistent-hash ring. Every owned op crosses as bytes, under the
// client's own request ID: a client's IDs are unique on its session, and
// so on each of the session's links. The router reads a binary request
// whose body names files (open, release, estwait, bitrep, acquire,
// subscribe, prefetch) no further than its opcode, request ID and
// context, and decodes a JSON-bodied one (the control plane) only to
// find its context; either way it appends the client's payload to the
// owning peer's write buffer. Every answer comes back as it arrived —
// the peer's read loop finds the request's relay by its ID and appends
// the frame to the client's write buffer. Nothing is re-encoded, and a
// binary request allocates nothing. The rest is answered here: ping,
// peers and unsubscribe by the router itself, and the ops with no
// single owner (contexts, sched-get/-set, an all-contexts
// quarantine-reset) by one fan-out to every member. Every touched peer
// is flushed once per client batch and the client once per peer batch.
//
// Peer connections are per client session, carrying the client's own
// name in their hello: the owning daemon sees one session per client
// and its reference/subscription cleanup on disconnect keeps working
// unchanged. stats, like every other per-context op, is the owner's.
//
// When a peer daemon dies, in-flight requests routed to it are
// answered with structured draining frames and later ops fail busy
// until the daemon returns — the same retryable codes a drained
// context surfaces, so reconnecting clients need no new error
// handling.
type Router struct {
	// listener supplies Listen, Addr and the accept loop under Serve.
	listener

	ring *Ring
	logf func(string, ...any)
}

// callTimeout bounds control-plane fan-out calls (contexts, sched-*,
// quarantine-reset).
const callTimeout = 10 * time.Second

type listener = netproto.Listener

// NewRouter builds a router over the given daemon addresses. replicas
// is the ring's virtual-node count (<=0 for the default); logf may be
// nil.
func NewRouter(peerAddrs []string, replicas int, logf func(string, ...any)) *Router {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Router{
		ring: NewRing(replicas, peerAddrs...),
		logf: logf,
	}
}

// Ring exposes the routing table (tests assert placement against it).
func (r *Router) Ring() *Ring { return r.ring }

// Serve accepts client connections until Close.
func (r *Router) Serve() error { return r.listener.Serve(nil, r.handle) }

// Close stops accepting and closes every client session (their peer
// connections close with them, so the daemons run disconnect cleanup
// for each proxied client).
func (r *Router) Close() { r.listener.Close(nil) }

// rsession is one client connection through the router.
type rsession struct {
	c      *netproto.Conn
	r      *Router
	client string

	// peers holds this session's sticky per-daemon links. Only the
	// session's read goroutine touches it.
	peers map[string]*PeerConn
}

// reply enqueues a response for the client; flush writes what is
// queued. A response that cannot be encoded or written drops the
// session: its request would otherwise wait forever.
func (sess *rsession) reply(resp netproto.Response) {
	sess.check("encode", sess.c.EnqueueResponse(&resp))
}

func (sess *rsession) flush() { sess.check("write", sess.c.Flush()) }

func (sess *rsession) check(what string, err error) {
	if err != nil {
		sess.r.logf("fed: %s for %s: %v", what, sess.c.RemoteAddr(), err)
		sess.c.Close()
	}
}

// peer returns this session's connection to addr, dialing a fresh one
// if none is live. The conn's hello carries the client's own name, so
// the daemon's per-client accounting and disconnect cleanup see the
// real client, not the router.
func (sess *rsession) peer(addr string) (*PeerConn, error) {
	if pc := sess.peers[addr]; pc != nil && !pc.Broken() {
		return pc, nil
	}
	delete(sess.peers, addr)
	// The link relays onto the client connection, and its read loop
	// flushes the client once a batch of daemon responses is relayed.
	pc, err := dialPeer(addr, sess.client, netproto.NewRelayPending(sess.c), sess.flush)
	if err != nil {
		return nil, err
	}
	sess.peers[addr] = pc
	return pc, nil
}

// flushPeers pushes every buffered forwarded request out, one write
// per touched peer.
func (sess *rsession) flushPeers() {
	for _, pc := range sess.peers {
		pc.Flush()
	}
}

// routerCaps is what the router advertises in every hello reply (plus
// CapBinary, which Accept adds).
var routerCaps = []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapPreempt}

func (r *Router) handle(c *netproto.Conn) {
	sess := &rsession{c: c, r: r, peers: map[string]*PeerConn{}}
	defer func() {
		// Closing the per-session peer conns is the whole disconnect
		// story: each daemon sees its session for this client drop and
		// runs its own reference/subscription cleanup.
		for _, pc := range sess.peers {
			pc.Close()
		}
	}()
	hello, err := c.Accept(routerCaps, "router")
	if err != nil {
		if err != io.EOF {
			r.logf("fed: handshake with %s: %v", c.RemoteAddr(), err)
		}
		return
	}
	sess.client = hello.Client
	// Before blocking on the client: requests first (the daemons can
	// start working), then any locally produced replies, one write each.
	idle := func() {
		sess.flushPeers()
		sess.flush()
	}
	forward := func(spec netproto.OpSpec, id uint64, ctx, payload []byte) bool {
		return r.forward(sess, spec, id, ctx, payload)
	}
	var env netproto.Envelope // one per session: see server.handle
	for {
		if err := c.ReadRequestForward(&env, idle, forward); err != nil {
			if err != io.EOF {
				r.logf("fed: read from %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		r.dispatch(sess, &env)
	}
}

// decodeBody unmarshals env's typed body, answering bad_request on
// failure.
func decodeBody[B any](sess *rsession, env *netproto.Envelope) (b B, ok bool) {
	if err := env.Decode(&b); err != nil {
		sess.reply(netproto.Response{ID: env.ID, Code: netproto.CodeBadRequest, Err: err.Error()})
		return b, false
	}
	return b, true
}

// dispatch serves one decoded client envelope — every request forward
// does not take: the router answers it, or fans it out to every member.
func (r *Router) dispatch(sess *rsession, env *netproto.Envelope) {
	id := env.ID
	switch env.Op {
	case netproto.OpPing:
		sess.reply(netproto.Response{ID: id, OK: true})

	case netproto.OpPeers:
		members := r.ring.Members()
		infos := make([]netproto.PeerInfo, len(members))
		for i, addr := range members {
			pc := sess.peers[addr]
			infos[i] = netproto.PeerInfo{Addr: addr, Role: "member", Connected: pc != nil && !pc.Broken()}
		}
		sess.reply(netproto.Response{ID: id, OK: true, Peers: infos})

	case netproto.OpContexts, netproto.OpSchedGet:
		r.fan(sess, id, env.Op, nil)

	case netproto.OpSchedSet:
		if b, ok := decodeBody[netproto.SchedSetBody](sess, env); ok {
			r.fan(sess, id, env.Op, b)
		}

	case netproto.OpQuarantineReset:
		// forward declined it: "all contexts" spans every daemon.
		if _, ok := decodeBody[netproto.CtxBody](sess, env); ok {
			r.fan(sess, id, env.Op, netproto.CtxBody{})
		}

	case netproto.OpUnsubscribe:
		b, ok := decodeBody[netproto.UnsubscribeBody](sess, env)
		if !ok {
			return
		}
		// Every link is told: on the one relaying the stream, the
		// daemon's ack ends the relay.
		for _, pc := range sess.peers {
			pc.unsubscribe(id, b.SubID)
		}
		// Unknown subscriptions ack like the daemon does (idempotent).
		sess.reply(netproto.Response{ID: id, OK: true})

	default:
		// What a daemon answers an op it does not serve.
		resp := netproto.Response{ID: id, Code: netproto.CodeUnsupported, Err: fmt.Sprintf("unknown op %q", env.Op)}
		if env.Row() >= 0 {
			// A known op forward was not offered: its routing body does
			// not decode.
			_, err := env.RoutingContext()
			resp.Code, resp.Err = netproto.CodeBadRequest, fmt.Sprint(err)
		}
		sess.reply(resp)
	}
}

// forward is the session's netproto.ForwardFunc: it relays one request
// as the client's bytes to the daemon owning ctx. It declines only an
// all-contexts quarantine-reset, which dispatch fans out.
func (r *Router) forward(sess *rsession, spec netproto.OpSpec, id uint64, ctx, payload []byte) bool {
	if len(ctx) == 0 && spec.Name == netproto.OpQuarantineReset {
		return false
	}
	if err := r.send(sess, r.ring.ownerOf(fnv64a(ctx)), id, spec, payload); err != nil {
		sess.unsent(id, string(ctx), spec.Stream, err)
	}
	return true
}

// send queues payload on the link to owner under the client's request
// id, as a relay: every response frame (a stream's up to its terminal
// one) goes back to the client as it arrived, queued by the link's read
// loop, which flushes the session once its response batch is drained.
// The error is a request nothing was sent for and nobody has answered.
func (r *Router) send(sess *rsession, owner string, id uint64, spec netproto.OpSpec, payload []byte) error {
	if owner == "" {
		return errors.New("no federation members configured")
	}
	pc, err := sess.peer(owner)
	if err != nil {
		return err
	}
	if err := pc.calls.AddRelay(id, spec); err != nil {
		return fmt.Errorf("fed: peer %s: %w", owner, err)
	}
	pc.c.EnqueuePayload(payload)
	return nil
}

// unsent answers a request the router did not send to the daemon owning
// ctxName: bad_request for an ID still in flight on the link, busy
// otherwise, and terminal for a stream.
func (sess *rsession) unsent(id uint64, ctxName string, stream bool, err error) {
	resp := netproto.Response{ID: id, Code: netproto.CodeBusy,
		Err: fmt.Sprintf("context %q unreachable: %v", ctxName, err), Done: stream}
	if errors.Is(err, netproto.ErrInFlight) {
		resp.Code, resp.Err = netproto.CodeBadRequest, err.Error()
	}
	sess.reply(resp)
}

// fanResult is one member's answer to a fan-out call.
type fanResult struct {
	addr string
	resp netproto.Response
	err  error
}

// fanout round-trips op against every ring member concurrently, under
// the client's request id.
func (r *Router) fanout(sess *rsession, id uint64, op string, body any) []fanResult {
	members := r.ring.Members()
	results := make([]fanResult, len(members))
	var wg sync.WaitGroup
	for i, addr := range members {
		results[i].addr = addr
		pc, err := sess.peer(addr)
		if err != nil {
			results[i].err = err
			continue
		}
		wg.Add(1)
		go func(i int, pc *PeerConn) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
			defer cancel()
			results[i].resp, results[i].err = pc.Call(ctx, id, op, body)
		}(i, pc)
	}
	wg.Wait()
	return results
}

// fan answers an op with no single owner from every member's answer to
// it. Each op's answer fills one field: contexts the union of the
// members' Names, sched-get and sched-set one member's Sched (members
// are normally configured alike), an all-contexts quarantine-reset the
// sum of their Counts. sched-set is strict and not atomic across
// daemons: the first member that refuses it or cannot be reached fails
// it, named, and leaves the others reconfigured.
func (r *Router) fan(sess *rsession, id uint64, op string, body any) {
	results := r.fanout(sess, id, op, body)
	out := netproto.Response{ID: id, OK: true}
	answered := false
	for _, res := range results {
		if op == netproto.OpSchedSet && res.err != nil {
			sess.reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
				Err: fmt.Sprintf("sched-set incomplete: member %s unreachable: %v", res.addr, res.err)})
			return
		}
		if op == netproto.OpSchedSet && res.resp.Code != "" {
			resp := res.resp
			resp.ID = id
			resp.Err = fmt.Sprintf("sched-set incomplete: member %s: %s", res.addr, resp.Err)
			sess.reply(resp)
			return
		}
		if res.err != nil || !res.resp.OK {
			continue
		}
		answered = true
		out.Names = append(out.Names, res.resp.Names...)
		if out.Sched == nil {
			out.Sched = res.resp.Sched
		}
		out.Count += res.resp.Count
	}
	if !answered {
		fanFail(sess, id, results)
		return
	}
	slices.Sort(out.Names)
	out.Names = slices.Compact(out.Names)
	sess.reply(out)
}

// fanFail reduces a fan-out no member answered to one client response,
// preferring an application error a daemon actually returned over
// transport errors.
func fanFail(sess *rsession, id uint64, results []fanResult) {
	for _, res := range results {
		if res.err == nil && res.resp.Code != "" {
			resp := res.resp
			resp.ID = id
			sess.reply(resp)
			return
		}
	}
	msgs := make([]string, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			msgs = append(msgs, res.err.Error())
		}
	}
	reason := strings.Join(msgs, "; ")
	if reason == "" {
		reason = "no members"
	}
	sess.reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
		Err: "no federation peer reachable: " + reason})
}
