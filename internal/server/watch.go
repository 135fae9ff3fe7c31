package server

import (
	"fmt"
	"sync/atomic"

	"simfs/internal/core"
	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// watchPolicy is one row of the readiness-stream table: all that tells
// acquire, subscribe and fed-watch apart. The stream itself — initial
// per-file frames, pump, terminal frame, unsubscribe, drain, disconnect
// cleanup — is the one below.
type watchPolicy struct {
	// open references every file through Open, which starts the
	// re-simulation of a missing one. A refused Open rolls back the
	// references taken so far and fails the stream as a whole.
	open bool
	// refuseUnproduced resolves a file that is neither resident nor
	// promised at once — not_produced, or handed to the peer daemons
	// when there are any — instead of keeping it pending until somebody
	// asks its producer.
	refuseUnproduced bool
	// failFast makes the first failed file the stream's last frame.
	failFast bool
	// fed enters the stream in the inbound federation ledger (peers op).
	fed bool
}

// watchPolicies is the table, keyed by op. An acquire's files are
// promised by its own opens, so it never meets an unproduced one. A
// fed-watch is the daemon↔daemon subscribe: the producer may only be
// asked later, and it never consults s.Peers — an interest bounces at
// most once, from the daemon the client asked to the producing peer,
// and a peer mesh cannot forward it in circles.
var watchPolicies = map[string]watchPolicy{
	netproto.OpAcquire:   {open: true, failFast: true},
	netproto.OpSubscribe: {refuseUnproduced: true},
	netproto.OpFedWatch:  {fed: true},
}

// fileWatch is one live readiness stream.
type fileWatch struct {
	watchPolicy
	sub *notify.Sub
	// unresolved names the files still owed a frame, by step. Once the
	// stream is live only pump touches it; pending mirrors its size for
	// the peers op to read.
	unresolved map[int]string
	pending    atomic.Int64
	// cancelRemote withdraws the interest registered with the peer
	// daemons (nil when none was).
	cancelRemote func()
}

// watch serves the three stream ops: it answers with one frame per file
// as the file resolves — at once for what is already decided, from pump
// for the rest — and a terminal Done frame. A request refused as a
// whole is answered by one failure frame that says Done, like every
// other end of a stream.
func (s *Server) watch(sess *session, env netproto.Envelope) {
	b, ok := decodeBody[netproto.FilesBody](sess, env)
	if !ok {
		return
	}
	pol, id, ctxName := watchPolicies[env.Op], env.ID, b.Context
	refuse := func(err error) {
		resp := failure(err)
		resp.ID, resp.Done = id, true
		sess.reply(resp)
	}
	if len(b.Files) == 0 {
		refuse(fmt.Errorf("%w: %s requires at least one file", core.ErrInvalid, env.Op))
		return
	}
	// Subscribed before any state is read (and before an acquire's
	// opens): whatever resolves a file from here on is buffered in sub.
	sub, files, err := s.v.Watch(sess.client, ctxName, b.Files)
	if err != nil {
		refuse(err)
		return
	}
	w := &fileWatch{watchPolicy: pol, sub: sub, unresolved: make(map[int]string, len(files))}
	for _, f := range files {
		w.unresolved[f.Step] = f.Name
	}
	var remote []string
	for i, f := range files {
		if pol.open {
			res, err := s.v.Open(sess.client, ctxName, f.Name)
			if err != nil {
				for _, g := range files[:i] {
					_ = s.v.Release(sess.client, ctxName, g.Name)
					sess.trackRef(ctxName, g.Name, -1)
				}
				sub.Close()
				refuse(err)
				return
			}
			sess.trackRef(ctxName, f.Name, +1)
			f.Resident, f.Promised = res.Available, true
		}
		if _, owed := w.unresolved[f.Step]; !owed {
			continue // a second mention of a file already answered
		}
		switch {
		case f.Resident:
			delete(w.unresolved, f.Step)
			sess.reply(netproto.Response{ID: id, OK: true, Ready: true, File: f.Name})
		case f.Promised, !pol.refuseUnproduced, !sub.Subscribed(notify.Topic{Context: ctxName, Step: f.Step}):
			// Pending: the hub will resolve it — or already has since the
			// Watch, and the event is in sub or on its way there for pump
			// (a taken topic is no longer subscribed).
		case s.Peers != nil:
			// Watched on the peers: the bridge republishes what they
			// produce into the local hub, so pump resolves it like a
			// local production.
			remote = append(remote, f.Name)
		default:
			delete(w.unresolved, f.Step)
			sess.reply(netproto.Response{ID: id, Code: netproto.CodeNotProduced,
				Err: "file is not being produced", File: f.Name})
		}
	}
	if len(w.unresolved) == 0 {
		sess.reply(netproto.Response{ID: id, OK: true, Done: true})
		sub.Close()
		return
	}
	w.pending.Store(int64(len(w.unresolved)))
	if len(remote) > 0 {
		w.cancelRemote = s.Peers.WatchRemote(ctxName, remote)
	}
	sess.addWatch(id, w)
	go w.pump(sess, id)
}

// pump turns the subscription's events into per-file frames until every
// file has resolved (or, failFast, one has failed) and ends the stream.
// It runs off the read loop, so its frames are sent, not left in the
// reply buffer. A subscription closed under it — unsubscribe, drain,
// disconnect — ends it without a frame of its own.
func (w *fileWatch) pump(sess *session, id uint64) {
	if w.cancelRemote != nil {
		defer w.cancelRemote()
	}
	for ev := range w.sub.C() {
		f, owed := w.unresolved[ev.Topic.Step]
		if !owed {
			continue
		}
		delete(w.unresolved, ev.Topic.Step)
		w.pending.Add(-1)
		if w.fed {
			sess.fedEvents.Add(1)
		}
		if ev.Kind == notify.FileFailed {
			resp := netproto.Response{ID: id, Code: netproto.CodeFailed, Err: ev.Err, File: f,
				Attempts: ev.Attempts, RetryAfterNs: ev.RetryAfter}
			if w.failFast {
				resp.Done = true
				w.end(sess, id, resp)
				return
			}
			sess.send(resp)
		} else {
			sess.send(netproto.Response{ID: id, OK: true, Ready: true, File: f})
		}
		if len(w.unresolved) == 0 {
			w.end(sess, id, netproto.Response{ID: id, OK: true, Done: true})
			return
		}
	}
}

// end sends the stream's terminal frame — unless an unsubscribe or the
// drain took the stream out of the session table first: whoever removes
// the entry has the last word on the request ID.
func (w *fileWatch) end(sess *session, id uint64, resp netproto.Response) {
	if sess.dropWatch(id) != nil {
		sess.send(resp)
	}
	w.sub.Close()
}

// addWatch enters a live stream in the session table.
func (sess *session) addWatch(id uint64, w *fileWatch) {
	sess.mu.Lock()
	if sess.watches == nil {
		sess.watches = map[uint64]*fileWatch{}
	}
	sess.watches[id] = w
	sess.mu.Unlock()
}

// dropWatch removes (and returns) a stream; nil when it is not live.
func (sess *session) dropWatch(id uint64) *fileWatch {
	sess.mu.Lock()
	w := sess.watches[id]
	delete(sess.watches, id)
	sess.mu.Unlock()
	return w
}

// endWatches empties the table and closes every stream's subscription,
// so the pumps stop sending, and returns the request IDs (drain answers
// each; disconnect cleanup has nobody to tell).
func (sess *session) endWatches() []uint64 {
	sess.mu.Lock()
	watches := sess.watches
	sess.watches = nil
	sess.mu.Unlock()
	ids := make([]uint64, 0, len(watches))
	for id, w := range watches {
		w.sub.Close()
		ids = append(ids, id)
	}
	return ids
}
