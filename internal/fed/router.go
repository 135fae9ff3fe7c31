package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"simfs/internal/netproto"
)

// Router is the federation front-end: it speaks the ordinary client
// protocol (hello handshake, binary codec, reply coalescing) and
// forwards every data-plane op to the daemon owning its context on the
// consistent-hash ring. Every request crosses under the client's own
// request ID: a client's IDs are unique on its session, and so on each
// of the session's links. A binary request whose body names files (open,
// release, estwait, bitrep, acquire, subscribe, prefetch) crosses as
// bytes: the router reads its opcode, request ID and context and appends
// the payload to the owning peer's write buffer, and every answer comes
// back as it arrived — the peer's read loop finds the request's relay by
// its ID and appends the frame to the client's write buffer. Nothing is
// decoded, re-encoded or allocated per request. The rest is decoded:
// ping and unsubscribe are answered here, and the JSON-bodied ops (the
// control plane) are re-encoded for their owner or fanned out. Every
// touched peer is flushed once per client batch and the client once per
// peer batch.
//
// Peer connections are per client session, carrying the client's own
// name in their hello: the owning daemon sees one session per client
// and its reference/subscription cleanup on disconnect keeps working
// unchanged. Control-plane ops with no single owner (contexts,
// sched-get/-set, an all-contexts quarantine-reset) fan out to every
// member; stats, like every other per-context op, is the owner's.
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
	forward := func(spec netproto.OpSpec, id uint64, ctx, payload []byte) {
		r.forward(sess, spec, id, ctx, payload)
	}
	var env netproto.Envelope // one per session: see server.handle
	for {
		if err := c.ReadRequestForward(&env, idle, forward); err != nil {
			if err != io.EOF {
				r.logf("fed: read from %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		r.dispatch(sess, env)
	}
}

// decodeBody unmarshals env's typed body, answering bad_request on
// failure.
func decodeBody[B any](sess *rsession, env netproto.Envelope) (b B, ok bool) {
	if err := env.Decode(&b); err != nil {
		sess.reply(netproto.Response{ID: env.ID, Code: netproto.CodeBadRequest, Err: err.Error()})
		return b, false
	}
	return b, true
}

// dispatch serves one decoded client envelope — every request forward
// does not take: the ops with no single owner are answered or fanned out
// here, everything else is proxied to the daemon owning its routing
// context.
func (r *Router) dispatch(sess *rsession, env netproto.Envelope) {
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

	case netproto.OpContexts:
		r.fanContexts(sess, id)

	case netproto.OpSchedGet:
		r.fanSchedGet(sess, id)

	case netproto.OpSchedSet:
		if b, ok := decodeBody[netproto.SchedSetBody](sess, env); ok {
			r.fanSchedSet(sess, id, b)
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

	case netproto.OpQuarantineReset:
		b, ok := decodeBody[netproto.CtxBody](sess, env)
		if !ok {
			return
		}
		if b.Context == "" {
			// "All contexts" spans every daemon: fan out and sum.
			r.fanQuarantineReset(sess, id)
			return
		}
		r.proxy(sess, env, b.Context)

	default:
		if _, known := netproto.LookupOp(env.Op); !known {
			// What a daemon answers an op it does not serve.
			sess.reply(netproto.Response{ID: id, Code: netproto.CodeUnsupported,
				Err: fmt.Sprintf("unknown op %q", env.Op)})
			return
		}
		ctxName, err := env.RoutingContext()
		if err != nil {
			sess.reply(netproto.Response{ID: id, Code: netproto.CodeBadRequest, Err: err.Error()})
			return
		}
		r.proxy(sess, env, ctxName)
	}
}

// forward is the session's netproto.ForwardFunc: it relays one binary
// request undecoded to the daemon owning ctx, which receives the
// client's bytes as they are.
func (r *Router) forward(sess *rsession, spec netproto.OpSpec, id uint64, ctx, payload []byte) {
	if err := r.send(sess, r.ring.ownerOf(fnv64a(ctx)), id, spec, nil, payload); err != nil {
		sess.unsent(id, string(ctx), spec.Stream, err)
	}
}

// proxy relays a decoded envelope — a JSON-bodied op — to the daemon
// owning ctxName, re-encoded.
func (r *Router) proxy(sess *rsession, env netproto.Envelope, ctxName string) {
	spec, _ := netproto.LookupOp(env.Op)
	if err := r.send(sess, r.ring.Owner(ctxName), env.ID, spec, &env, nil); err != nil {
		sess.unsent(env.ID, ctxName, spec.Stream, err)
	}
}

// send queues the client's request id on the link to owner under that
// same ID — env encoded when set, payload as it is otherwise — as a
// relay: every response frame (a stream's up to its terminal one) goes
// back to the client as it arrived, queued by the link's read loop,
// which flushes the session once its response batch is drained. The
// error is a request nothing was sent for and nobody has answered.
func (r *Router) send(sess *rsession, owner string, id uint64, spec netproto.OpSpec, env *netproto.Envelope, payload []byte) error {
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
	if env == nil {
		pc.c.EnqueuePayload(payload)
		return nil
	}
	if err := pc.c.EnqueueRequest(env); err != nil {
		if _, ok := pc.calls.Remove(id); ok {
			return err
		}
		// The link failed meanwhile and answered the client.
	}
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

// fanFail reduces an all-failed fan-out to one client response,
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

// fanContexts merges every member's context list (sorted union).
func (r *Router) fanContexts(sess *rsession, id uint64) {
	results := r.fanout(sess, id, netproto.OpContexts, nil)
	seen := map[string]bool{}
	anyOK := false
	for _, res := range results {
		if res.err != nil || !res.resp.OK {
			continue
		}
		anyOK = true
		for _, n := range res.resp.Names {
			seen[n] = true
		}
	}
	if !anyOK {
		fanFail(sess, id, results)
		return
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	sess.reply(netproto.Response{ID: id, OK: true, Names: names})
}

// fanSchedGet answers with the first reachable member's scheduler
// config (members are normally configured identically).
func (r *Router) fanSchedGet(sess *rsession, id uint64) {
	results := r.fanout(sess, id, netproto.OpSchedGet, nil)
	for _, res := range results {
		if res.err == nil && res.resp.OK && res.resp.Sched != nil {
			resp := res.resp
			resp.ID = id
			sess.reply(resp)
			return
		}
	}
	fanFail(sess, id, results)
}

// fanSchedSet applies a scheduler reconfiguration on every member.
// The fan-out is not atomic across daemons: a member failing mid-way
// leaves the others reconfigured (the error response says which).
func (r *Router) fanSchedSet(sess *rsession, id uint64, body netproto.SchedSetBody) {
	results := r.fanout(sess, id, netproto.OpSchedSet, body)
	var ok *netproto.Response
	for i, res := range results {
		if res.err != nil {
			sess.reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
				Err: fmt.Sprintf("sched-set incomplete: member %s unreachable: %v", res.addr, res.err)})
			return
		}
		if res.resp.Code != "" {
			resp := res.resp
			resp.ID = id
			resp.Err = fmt.Sprintf("sched-set incomplete: member %s: %s", res.addr, resp.Err)
			sess.reply(resp)
			return
		}
		ok = &results[i].resp
	}
	if ok == nil {
		sess.reply(netproto.Response{ID: id, Code: netproto.CodeBusy, Err: "no federation members configured"})
		return
	}
	resp := *ok
	resp.ID = id
	sess.reply(resp)
}

// fanQuarantineReset clears the quarantine ledger on every member and
// sums the released-interval counts.
func (r *Router) fanQuarantineReset(sess *rsession, id uint64) {
	results := r.fanout(sess, id, netproto.OpQuarantineReset, netproto.CtxBody{})
	total := 0
	anyOK := false
	for _, res := range results {
		if res.err == nil && res.resp.OK {
			anyOK = true
			total += res.resp.Count
		}
	}
	if !anyOK {
		fanFail(sess, id, results)
		return
	}
	sess.reply(netproto.Response{ID: id, OK: true, Count: total})
}
