package fed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"simfs/internal/netproto"
)

// Router is the federation front-end: it speaks the ordinary client
// protocol (hello handshake, binary codec, reply coalescing) and
// forwards every data-plane op to the daemon owning its context on the
// consistent-hash ring. A binary request whose body names files (open,
// release, estwait, bitrep, acquire, subscribe, prefetch) crosses as
// bytes: the router reads its opcode, request ID and context, appends
// the payload to the owning peer's write buffer under a peer-side ID,
// and the daemon's binary answers come back the same way — the peer's
// read loop looks up the client's ID and appends the renumbered bytes to
// the client's write buffer. Nothing is decoded, re-encoded or allocated
// per request. The rest is decoded: ping and unsubscribe are answered
// here, the JSON-bodied ops (the control plane) are re-encoded for their
// owner or fanned out, and JSON answers (rich responses) are re-encoded
// on the way back. Every touched peer is flushed once per client batch
// and the client once per peer batch.
//
// Peer connections are per client session, carrying the client's own
// name in their hello: the owning daemon sees one session per client
// and its reference/subscription cleanup on disconnect keeps working
// unchanged. Control-plane reads that have no single owner (contexts,
// stats) fan out to every member and merge.
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

	// CallTimeout bounds control-plane fan-out calls (contexts, stats,
	// sched-*). Set before Serve.
	CallTimeout time.Duration
}

type listener = netproto.Listener

// NewRouter builds a router over the given daemon addresses. replicas
// is the ring's virtual-node count (<=0 for the default); logf may be
// nil.
func NewRouter(peerAddrs []string, replicas int, logf func(string, ...any)) *Router {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Router{
		ring:        NewRing(replicas, peerAddrs...),
		logf:        logf,
		CallTimeout: 10 * time.Second,
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

// peerRoute remembers where a live client subscription was forwarded,
// for unsubscribe remapping.
type peerRoute struct {
	pc     *PeerConn
	peerID uint64
}

// rsession is one client connection through the router.
type rsession struct {
	c      *netproto.Conn
	r      *Router
	client string

	// mu guards peers (this session's sticky per-daemon connections)
	// and routes (client request ID → peer route for live streams).
	mu     sync.Mutex
	peers  map[string]*PeerConn
	routes map[uint64]peerRoute
	closed bool

	// flushing is flushPeers' scratch list, reused: only the session's
	// read goroutine flushes.
	flushing []*PeerConn
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
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.peerLocked(addr)
}

func (sess *rsession) peerLocked(addr string) (*PeerConn, error) {
	if sess.closed {
		return nil, errors.New("fed: session closing")
	}
	if pc := sess.peers[addr]; pc != nil && !pc.Broken() {
		return pc, nil
	}
	delete(sess.peers, addr)
	// The link relays onto the client connection, and its read loop
	// flushes the client once a batch of daemon responses is relayed.
	pc, err := dialPeer(addr, sess.client, netproto.NewRelayPending(sess.c, sess.streamEnded), sess.flush)
	if err != nil {
		return nil, err
	}
	sess.peers[addr] = pc
	return pc, nil
}

// flushPeers pushes every buffered forwarded request out, one write
// per touched peer.
func (sess *rsession) flushPeers() {
	sess.mu.Lock()
	for _, pc := range sess.peers {
		sess.flushing = append(sess.flushing, pc)
	}
	sess.mu.Unlock()
	for _, pc := range sess.flushing {
		pc.Flush()
	}
	clear(sess.flushing) // pins no link the session has dropped
	sess.flushing = sess.flushing[:0]
}

// relay registers the client's request clientID on this session's link
// to owner under a fresh peer-side ID — held until its terminal frame
// for a stream op — and a cancelable stream's unsubscribe route with it.
// Both happen in one hold of sess.mu, before the frame can leave: the
// stream's terminal frame drops the route through the same lock, so it
// cannot run first and leave the route behind.
func (sess *rsession) relay(owner string, clientID uint64, spec netproto.OpSpec) (*PeerConn, uint64, error) {
	if owner == "" {
		return nil, 0, errors.New("no federation members configured")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	pc, err := sess.peerLocked(owner)
	if err != nil {
		return nil, 0, err
	}
	peerID, ok := pc.calls.AddRelay(clientID, spec.Stream)
	if !ok {
		return nil, 0, fmt.Errorf("fed: peer %s is down", owner)
	}
	if cancelable(spec) {
		sess.routes[clientID] = peerRoute{pc: pc, peerID: peerID}
	}
	return pc, peerID, nil
}

// cancelable reports whether a client may unsubscribe from the op's
// stream: every stream but open's, whose ID stays live only for the
// notice of a miss.
func cancelable(spec netproto.OpSpec) bool { return spec.Stream && spec.Name != netproto.OpOpen }

// streamEnded is the relay tables' hook: a relayed stream is over, and
// its unsubscribe route goes with it.
func (sess *rsession) streamEnded(clientID uint64) { sess.dropRoute(clientID) }

func (sess *rsession) dropRoute(clientID uint64) (peerRoute, bool) {
	sess.mu.Lock()
	rt, ok := sess.routes[clientID]
	delete(sess.routes, clientID)
	sess.mu.Unlock()
	return rt, ok
}

// routerCaps is what the router advertises in every hello reply (plus
// CapBinary, which Accept adds).
var routerCaps = []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapPreempt}

func (r *Router) handle(c *netproto.Conn) {
	sess := &rsession{c: c, r: r, peers: map[string]*PeerConn{}, routes: map[uint64]peerRoute{}}
	defer func() {
		// Closing the per-session peer conns is the whole disconnect
		// story: each daemon sees its session for this client drop and
		// runs its own reference/subscription cleanup.
		sess.mu.Lock()
		sess.closed = true
		peers := sess.peers
		sess.peers = map[string]*PeerConn{}
		sess.mu.Unlock()
		for _, pc := range peers {
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
		sess.mu.Lock()
		live := make(map[string]bool, len(sess.peers))
		for addr, pc := range sess.peers {
			live[addr] = !pc.Broken()
		}
		sess.mu.Unlock()
		members := r.ring.Members()
		infos := make([]netproto.PeerInfo, len(members))
		for i, addr := range members {
			infos[i] = netproto.PeerInfo{Addr: addr, Role: "member", Connected: live[addr]}
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
		if rt, ok := sess.dropRoute(b.SubID); ok {
			rt.pc.Post(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: rt.peerID})
		}
		// Unknown subscriptions ack like the daemon does (idempotent).
		sess.reply(netproto.Response{ID: id, OK: true})

	case netproto.OpStats:
		if b, ok := decodeBody[netproto.CtxBody](sess, env); ok {
			r.fanStats(sess, id, b.Context)
		}

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
// client's bytes with only the request ID changed.
func (r *Router) forward(sess *rsession, spec netproto.OpSpec, clientID uint64, ctx, payload []byte) {
	if err := r.send(sess, r.ring.ownerOf(fnv64a(ctx)), clientID, spec, nil, payload); err != nil {
		sess.unreachable(clientID, string(ctx), spec.Stream, err)
	}
}

// proxy relays a decoded envelope — a JSON-bodied op — to the daemon
// owning ctxName, re-encoded under a peer-side ID.
func (r *Router) proxy(sess *rsession, env netproto.Envelope, ctxName string) {
	clientID := env.ID
	spec, _ := netproto.LookupOp(env.Op)
	if err := r.send(sess, r.ring.Owner(ctxName), clientID, spec, &env, nil); err != nil {
		sess.unreachable(clientID, ctxName, spec.Stream, err)
	}
}

// send queues one client request on the link to owner — env re-encoded
// when set, payload renumbered otherwise — as a relay: every response
// frame (a stream's up to its terminal one) goes back to the client
// under clientID, queued by the link's read loop, which flushes the
// session once its response batch is drained. The error is a request
// nothing was sent for and nobody has answered.
func (r *Router) send(sess *rsession, owner string, clientID uint64, spec netproto.OpSpec, env *netproto.Envelope, payload []byte) error {
	pc, peerID, err := sess.relay(owner, clientID, spec)
	if err != nil {
		return err
	}
	if env != nil {
		env.ID = peerID
		err = pc.c.EnqueueRequest(env)
	} else {
		err = pc.c.EnqueueRenumbered(payload, peerID)
	}
	if err == nil {
		return nil
	}
	if cancelable(spec) {
		sess.dropRoute(clientID)
	}
	if _, ok := pc.calls.Remove(peerID); !ok {
		return nil // the link failed meanwhile and answered the client
	}
	return err
}

// unreachable answers a request the router could not send to the
// daemon owning ctxName: busy, and terminal for a stream.
func (sess *rsession) unreachable(clientID uint64, ctxName string, stream bool, err error) {
	sess.reply(netproto.Response{ID: clientID, Code: netproto.CodeBusy,
		Err: fmt.Sprintf("context %q unreachable: %v", ctxName, err), Done: stream})
}

// fanResult is one member's answer to a fan-out call.
type fanResult struct {
	addr string
	resp netproto.Response
	err  error
}

// fanout round-trips op against every ring member concurrently.
func (r *Router) fanout(sess *rsession, op string, body any) []fanResult {
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
			ctx, cancel := context.WithTimeout(context.Background(), r.CallTimeout)
			defer cancel()
			results[i].resp, results[i].err = pc.Call(ctx, op, body)
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
	sess.reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
		Err: "no federation peer reachable: " + joinMsgs(msgs)})
}

func joinMsgs(msgs []string) string {
	if len(msgs) == 0 {
		return "no members"
	}
	out := msgs[0]
	for _, m := range msgs[1:] {
		out += "; " + m
	}
	return out
}

// fanContexts merges every member's context list (sorted union).
func (r *Router) fanContexts(sess *rsession, id uint64) {
	results := r.fanout(sess, netproto.OpContexts, nil)
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
	results := r.fanout(sess, netproto.OpSchedGet, nil)
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
	results := r.fanout(sess, netproto.OpSchedSet, body)
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
	results := r.fanout(sess, netproto.OpQuarantineReset, netproto.CtxBody{})
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

// fanStats merges per-context stats across the members that know the
// context: counters sum, the drain flag ORs, per-op latency entries
// merge (counts sum, percentiles take the worst member). Only members
// answering no_such_context are ignored — the context's shards plus
// the daemon-global scheduler counters of every hosting member add up.
func (r *Router) fanStats(sess *rsession, id uint64, ctxName string) {
	results := r.fanout(sess, netproto.OpStats, netproto.CtxBody{Context: ctxName})
	var merged *netproto.Stats
	for _, res := range results {
		if res.err != nil || !res.resp.OK || res.resp.Stats == nil {
			continue
		}
		if merged == nil {
			cp := *res.resp.Stats
			merged = &cp
			continue
		}
		mergeStats(merged, res.resp.Stats)
	}
	if merged == nil {
		fanFail(sess, id, results)
		return
	}
	sess.reply(netproto.Response{ID: id, OK: true, Stats: merged})
}

// mergeStats accumulates src into dst. The fieldsync analyzer holds it
// to Stats's full field list: a counter added to the wire struct but
// not merged here would silently vanish from federated stat fan-ins.
//
//simfs:sync netproto.Stats
func mergeStats(dst, src *netproto.Stats) {
	dst.Opens += src.Opens
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Restarts += src.Restarts
	dst.DemandRestarts += src.DemandRestarts
	dst.PrefetchLaunches += src.PrefetchLaunches
	dst.DroppedPrefetch += src.DroppedPrefetch
	dst.StepsProduced += src.StepsProduced
	dst.Evictions += src.Evictions
	dst.Kills += src.Kills
	dst.Failures += src.Failures
	dst.PollutionResets += src.PollutionResets
	dst.Draining = dst.Draining || src.Draining
	if dst.CachePolicy == "" {
		dst.CachePolicy = src.CachePolicy
	}
	dst.LockAcquisitions += src.LockAcquisitions
	dst.LockContended += src.LockContended
	dst.LockWaitNs += src.LockWaitNs
	dst.SchedQueueDepth += src.SchedQueueDepth
	dst.SchedCoalesced += src.SchedCoalesced
	dst.SchedDropped += src.SchedDropped
	dst.SchedCanceled += src.SchedCanceled
	dst.SchedDemandWaitNs += src.SchedDemandWaitNs
	dst.SchedGuidedWaitNs += src.SchedGuidedWaitNs
	dst.SchedAgentWaitNs += src.SchedAgentWaitNs
	dst.SchedPreempted += src.SchedPreempted
	dst.SchedPromoted += src.SchedPromoted
	dst.SchedQuotaRounds += src.SchedQuotaRounds
	dst.SchedQuotaDeferred += src.SchedQuotaDeferred
	dst.SchedRetries += src.SchedRetries
	dst.SchedQuarantined += src.SchedQuarantined
	if len(src.SchedClientLoads) > 0 {
		if dst.SchedClientLoads == nil {
			dst.SchedClientLoads = make(map[string]uint64, len(src.SchedClientLoads))
		}
		for client, steps := range src.SchedClientLoads {
			dst.SchedClientLoads[client] += steps
		}
	}
	dst.Ops = mergeOpLatencies(dst.Ops, src.Ops)
}

// mergeOpLatencies merges per-op summaries by name: counts sum and the
// percentiles take the slowest member (the bound an operator cares
// about), sorted by op for a deterministic wire order.
func mergeOpLatencies(a, b []netproto.OpLatency) []netproto.OpLatency {
	if len(a) == 0 {
		return b
	}
	byOp := make(map[string]netproto.OpLatency, len(a)+len(b))
	for _, l := range a {
		byOp[l.Op] = l
	}
	for _, l := range b {
		if have, ok := byOp[l.Op]; ok {
			have.Count += l.Count
			if l.P50Ns > have.P50Ns {
				have.P50Ns = l.P50Ns
			}
			if l.P99Ns > have.P99Ns {
				have.P99Ns = l.P99Ns
			}
			byOp[l.Op] = have
		} else {
			byOp[l.Op] = l
		}
	}
	out := make([]netproto.OpLatency, 0, len(byOp))
	for _, l := range byOp {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
