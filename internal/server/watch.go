package server

import (
	"fmt"

	"simfs/internal/core"
	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// fileWatch is one readiness stream, whose files wait in the hub under
// the session's streams owner and the stream's request ID.
type fileWatch struct {
	// acquire tells an acquire from a subscribe; the stream itself is
	// one. An acquire references every file through Open, which starts
	// the re-simulation of a missing one, so it never meets an
	// unproduced file; a refused Open rolls back the references taken so
	// far and fails the stream as a whole, and its first failed file is
	// its last frame. A subscribe only watches: a file neither resident
	// nor promised is answered not_produced at once.
	acquire bool
	ctx     string
	// unresolved names the files still owed a frame, by step: the dispatch
	// loop's until the stream is live, then guarded by the pusher's mu.
	unresolved map[int]string
	// live: the initial frames are queued; until then events wait in early.
	live  bool
	early []notify.Event
}

// watch serves both stream ops: one frame per file as the file
// resolves — at once for what is already decided, from the pusher for
// the rest — and a terminal Done frame. A request refused as a whole is
// answered by one failure frame that says Done, like every other end of
// a stream.
func (s *Server) watch(sess *session, env *netproto.Envelope) {
	b, ok := decodeBody[netproto.FilesBody](sess, env)
	if !ok {
		return
	}
	id, ctxName := env.ID, b.Context
	// In the table before its waiters are registered (and those before
	// any state is read or an acquire opens), so no event is lost.
	w := &fileWatch{acquire: env.Op == netproto.OpAcquire, ctx: ctxName}
	sess.pusher.mu.Lock()
	sess.pusher.watches[id] = w
	sess.pusher.mu.Unlock()
	refuse := func(err error) {
		sess.endWatch(id)
		resp := failure(err)
		resp.ID, resp.Done = id, true
		sess.reply(&resp)
	}
	if len(b.Files) == 0 {
		refuse(fmt.Errorf("%w: %s requires at least one file", core.ErrInvalid, env.Op))
		return
	}
	streams := sess.pusher.streams
	files, err := s.v.Watch(sess.client, ctxName, b.Files, streams, id)
	if err != nil {
		refuse(err)
		return
	}
	w.unresolved = make(map[int]string, len(files))
	for _, f := range files {
		w.unresolved[f.Step] = f.Name
	}
	for i, f := range files {
		if w.acquire {
			// A file resident at the Watch has no waiter: should it be
			// evicted before this open, the miss registers one.
			o := streams
			if !f.Resident {
				o = nil
			}
			res, err := s.v.OpenAwait(sess.client, ctxName, f.Name, o, id, f.Step)
			if err != nil {
				for _, g := range files[:i] {
					_ = s.v.Release(sess.client, ctxName, g.Name, g.Step)
					sess.trackRef(ctxName, g.Name, -1)
				}
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
			sess.reply(&netproto.Response{ID: id, OK: true, Ready: true, File: f.Name})
		case f.Promised:
			// Pending: the hub will resolve it — or already has since the
			// Watch, and the event is kept in w or on its way there.
		case s.v.Hub().Withdraw(streams, id, notify.Topic{Context: ctxName, Step: f.Step}) == 0:
			// Taken since the Watch: its event is on its way.
		default:
			delete(w.unresolved, f.Step)
			sess.reply(&netproto.Response{ID: id, Code: netproto.CodeNotProduced,
				Err: "file is not being produced", File: f.Name})
		}
	}
	sess.goLive(id, w)
}

// goLive hands stream id to its callback once the initial frames are
// queued, queuing the events that came meanwhile right behind them — or
// ends it, when nothing is left to wait for or the daemon is draining.
func (sess *session) goLive(id uint64, w *fileWatch) {
	n := &sess.pusher
	n.mu.Lock()
	last := netproto.Response{ID: id, OK: true, Done: true}
	if len(w.unresolved) > 0 {
		if !n.draining {
			w.live = true
			for _, ev := range w.early {
				if sess.resolveLocked(id, w, ev) {
					break
				}
			}
			w.early = nil
			n.mu.Unlock()
			return
		}
		last = drainingNotice(id)
	}
	sess.endLocked(id, w)
	n.mu.Unlock()
	sess.reply(&last)
}

// streamEvent is the streams owner's callback: the event of one file of
// stream id. A stream that has ended — or was withdrawn after the event
// was taken — drops it.
func (sess *session) streamEvent(id uint64, ev notify.Event) {
	n := &sess.pusher
	n.mu.Lock()
	defer n.mu.Unlock()
	switch w := n.watches[id]; {
	case w == nil:
	case !w.live:
		w.early = append(w.early, ev)
	default:
		sess.resolveLocked(id, w, ev)
	}
}

// resolveLocked queues the frame an event of live stream id earns its
// file, and ends the stream behind it with Done once every file has
// resolved, or at once on a failFast failure. It reports whether the
// stream ended. Caller holds the pusher's mu.
func (sess *session) resolveLocked(id uint64, w *fileWatch, ev notify.Event) bool {
	n := &sess.pusher
	f, owed := w.unresolved[ev.Topic.Step]
	if !owed {
		return false
	}
	delete(w.unresolved, ev.Topic.Step)
	resp := netproto.Response{ID: id, OK: true, Ready: true, File: f}
	if ev.Kind == notify.FileFailed {
		resp = netproto.Response{ID: id, Code: netproto.CodeFailed, Err: ev.Err, File: f,
			Attempts: ev.Attempts, RetryAfterNs: ev.RetryAfter, Done: w.acquire}
	}
	n.queue = append(n.queue, resp)
	ended := resp.Done || len(w.unresolved) == 0
	if ended && !resp.Done {
		n.queue = append(n.queue, netproto.Response{ID: id, OK: true, Done: true})
	}
	if ended {
		sess.endLocked(id, w)
	}
	sess.kickLocked()
	return ended
}

// endWatch ends stream id without a frame of its own: unsubscribe, or a
// stream refused as a whole.
func (sess *session) endWatch(id uint64) {
	n := &sess.pusher
	n.mu.Lock()
	defer n.mu.Unlock()
	if w := n.watches[id]; w != nil {
		sess.endLocked(id, w)
	}
}

// endLocked ends stream id: whoever takes it out of the table has the
// last word on the request ID. Its waiters left in the hub are withdrawn
// (an event already taken finds no stream). Caller holds the pusher's mu.
func (sess *session) endLocked(id uint64, w *fileWatch) {
	n := &sess.pusher
	delete(n.watches, id)
	if len(w.unresolved) > 0 {
		topics := make([]notify.Topic, 0, len(w.unresolved))
		for step := range w.unresolved {
			topics = append(topics, notify.Topic{Context: w.ctx, Step: step})
		}
		sess.srv.v.Hub().Withdraw(n.streams, id, topics...)
	}
}
