package fed

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/netproto"
)

// redialBackoff is the minimum interval between dial attempts to a
// peer that just failed, so a dead peer cannot turn every subscribe
// into a connect timeout.
const redialBackoff = time.Second

// Bridge is a daemon's outbound half of cross-daemon notification:
// the per-peer subscription manager the server hands files to when no
// local simulation will produce them (see server.PeerNotifier). For
// each interest it opens a fed-watch on every peer — the shape of
// bitswap's sublist ledger: the peers remember what we want, we
// remember what we asked for — and republishes the first resolution of
// each file into the local notify hub via the publish callback. The
// hub's one-shot subscriptions make delivery to local watchers
// exactly-once even when several peers answer.
//
// Semantics are deliberately best-effort, like the store it overlays:
// a dead peer drops the interests it held (clients re-subscribe or
// poll; the files remain pullable), and events for files nobody here
// watches anymore are discarded by the hub.
type Bridge struct {
	name string
	// publish republishes a remote file event into the local hub;
	// wired by server.Stack.EnablePeers.
	publish func(ctxName, file string, ready bool, errMsg string, attempts int, retryAfterNs int64)

	mu       sync.Mutex
	addrs    []string
	conns    map[string]*PeerConn
	lastFail map[string]time.Time
	closed   bool
	// groups is the live sublist: watch groups with undelivered files.
	// A peer link that dropped and was redialed lost the sublist the old
	// connection held, so every live group re-issues its remaining
	// interests on the fresh conn (see WatchRemote).
	groups map[*watchGroup]struct{}

	// watched is the live sublist size (topics with an undelivered
	// remote interest); delivered counts events accepted from any peer.
	watched   atomic.Int64
	delivered atomic.Uint64
}

// NewBridge builds a bridge dialing the given peer daemon addresses
// lazily. name identifies this daemon to its peers ("fed:<name>" on
// the wire). publish must be non-nil.
func NewBridge(name string, peerAddrs []string, publish func(ctxName, file string, ready bool, errMsg string, attempts int, retryAfterNs int64)) *Bridge {
	addrs := append([]string(nil), peerAddrs...)
	sort.Strings(addrs)
	return &Bridge{
		name:     name,
		publish:  publish,
		addrs:    addrs,
		conns:    map[string]*PeerConn{},
		lastFail: map[string]time.Time{},
		groups:   map[*watchGroup]struct{}{},
	}
}

// Close tears down every peer connection. Pending interests die with
// them (best-effort semantics).
func (b *Bridge) Close() {
	b.mu.Lock()
	b.closed = true
	conns := make([]*PeerConn, 0, len(b.conns))
	for _, pc := range b.conns {
		conns = append(conns, pc)
	}
	b.conns = map[string]*PeerConn{}
	b.mu.Unlock()
	for _, pc := range conns {
		pc.Close()
	}
}

// peerLocked returns a live conn to addr, dialing if needed. Callers
// hold b.mu. A nil conn means the peer is currently unreachable; fresh
// reports that this call just (re)dialed, so the connection carries
// none of the interests the previous link held.
//
//simfs:allow wallclock redial backoff paces real peer dials, not simulation
func (b *Bridge) peerLocked(addr string) (conn *PeerConn, fresh bool) {
	if pc := b.conns[addr]; pc != nil && !pc.Broken() {
		return pc, false
	}
	delete(b.conns, addr)
	if time.Since(b.lastFail[addr]) < redialBackoff {
		return nil, false
	}
	pc, err := DialPeer(addr, "fed:"+b.name)
	if err != nil {
		b.lastFail[addr] = time.Now()
		return nil, false
	}
	if !netproto.HasCap(pc.Caps(), netproto.CapFed) {
		// An old daemon that cannot serve fed-watch.
		pc.Close()
		b.lastFail[addr] = time.Now()
		return nil, false
	}
	delete(b.lastFail, addr)
	b.conns[addr] = pc
	return pc, true
}

// dropGroup removes a group from the live sublist once it has nothing
// left to re-arm (fully delivered or canceled).
func (b *Bridge) dropGroup(g *watchGroup) {
	b.mu.Lock()
	delete(b.groups, g)
	b.mu.Unlock()
}

// watchGroup tracks one WatchRemote call: which files already resolved
// (so N peers answering produce one publish), and the subscriptions to
// cancel.
type watchGroup struct {
	b       *Bridge
	ctxName string
	files   []string

	mu        sync.Mutex
	delivered map[string]bool
	remaining int
	canceled  bool
	subs      []groupSub
}

type groupSub struct {
	pc *PeerConn
	id uint64
}

// WatchRemote implements server.PeerNotifier: it opens a fed-watch for
// the files on every reachable peer and returns a cancel that
// withdraws the interest. Peers that are down are skipped — clients
// keep their local subscription and the next interest retries the
// dial.
func (b *Bridge) WatchRemote(ctxName string, files []string) func() {
	g := &watchGroup{b: b, ctxName: ctxName,
		files:     append([]string(nil), files...),
		delivered: make(map[string]bool, len(files)), remaining: len(files)}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return func() {}
	}
	peers := make([]*PeerConn, 0, len(b.addrs))
	var freshPeers []*PeerConn
	for _, addr := range b.addrs {
		pc, fresh := b.peerLocked(addr)
		if pc == nil {
			continue
		}
		peers = append(peers, pc)
		if fresh {
			freshPeers = append(freshPeers, pc)
		}
	}
	var rearm []*watchGroup
	if len(freshPeers) > 0 {
		rearm = make([]*watchGroup, 0, len(b.groups))
		for og := range b.groups {
			rearm = append(rearm, og)
		}
	}
	b.groups[g] = struct{}{}
	b.mu.Unlock()

	// A peer that just came back (or joined) lost the sublist its old
	// connection held: every still-live group re-issues its undelivered
	// interests on the fresh link before the new group arms.
	for _, pc := range freshPeers {
		for _, og := range rearm {
			og.subscribeOn(pc)
		}
	}
	for _, pc := range peers {
		g.subscribeOn(pc)
	}
	b.watched.Add(int64(len(files)))
	return g.cancel
}

// subscribeOn opens the group's fed-watch for its undelivered files on
// one peer connection — at group creation on every reachable peer, and
// again on any freshly redialed link (the peers' sublists are per
// connection, so a dropped link forgot us).
func (g *watchGroup) subscribeOn(pc *PeerConn) {
	g.mu.Lock()
	if g.canceled || g.remaining == 0 {
		g.mu.Unlock()
		return
	}
	for _, s := range g.subs {
		if s.pc == pc {
			// This exact connection already holds our interest (a group
			// armed while the link was alive): nothing to re-issue.
			g.mu.Unlock()
			return
		}
	}
	left := make([]string, 0, g.remaining)
	for _, f := range g.files {
		if !g.delivered[f] {
			left = append(left, f)
		}
	}
	g.mu.Unlock()

	id, err := pc.Subscribe(netproto.OpFedWatch,
		netproto.FilesBody{Context: g.ctxName, Files: left}, g.frameFrom(pc))
	if err != nil {
		return
	}
	g.mu.Lock()
	if g.canceled {
		g.mu.Unlock()
		pc.Post(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: id})
		pc.Flush()
		return
	}
	g.subs = append(g.subs, groupSub{pc: pc, id: id})
	g.mu.Unlock()
}

// frameFrom handles one peer's response frames for the group,
// collapsing duplicate answers across peers before publishing.
func (g *watchGroup) frameFrom(pc *PeerConn) func(netproto.Response) {
	return func(resp netproto.Response) {
		if resp.File == "" {
			// Terminal frame (done, draining, no_such_context, …): this
			// peer's stream is over. Interests it held die with it.
			return
		}
		g.mu.Lock()
		if g.canceled || g.delivered[resp.File] {
			g.mu.Unlock()
			return
		}
		g.delivered[resp.File] = true
		g.remaining--
		done := g.remaining == 0
		g.mu.Unlock()
		if done {
			g.b.dropGroup(g)
		}
		g.b.watched.Add(-1)
		g.b.delivered.Add(1)
		g.b.publish(g.ctxName, resp.File, resp.Ready, resp.Err, resp.Attempts, resp.RetryAfterNs)
	}
}

// cancel withdraws the group's interest from every peer. Idempotent.
func (g *watchGroup) cancel() {
	g.mu.Lock()
	if g.canceled {
		g.mu.Unlock()
		return
	}
	g.canceled = true
	subs := g.subs
	g.subs = nil
	left := g.remaining
	g.remaining = 0
	g.mu.Unlock()
	g.b.dropGroup(g)
	g.b.watched.Add(-int64(left))
	for _, s := range subs {
		if s.pc.Post(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: s.id}) == nil {
			s.pc.Flush()
		}
	}
}

// PeerInfos implements server.PeerNotifier: one "out" entry per
// configured peer. Topics is the bridge-wide live sublist size (every
// connected peer holds a watch for each), Events the total accepted
// from any peer.
func (b *Bridge) PeerInfos() []netproto.PeerInfo {
	topics := int(b.watched.Load())
	if topics < 0 {
		topics = 0
	}
	events := b.delivered.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	infos := make([]netproto.PeerInfo, 0, len(b.addrs))
	for _, addr := range b.addrs {
		pc := b.conns[addr]
		connected := pc != nil && !pc.Broken()
		info := netproto.PeerInfo{Addr: addr, Role: "out", Connected: connected}
		if connected {
			info.Topics = topics
			info.Events = events
		}
		infos = append(infos, info)
	}
	return infos
}
