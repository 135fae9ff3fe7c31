package server

import (
	"sync"

	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// pusher sends what the hub decides later: a missed open's notice (its
// second answer) and a readiness stream's per-file frames (watch.go).
// Both wait in the hub as tagged callbacks, registered in the shard-lock
// hold that read the file's state (core's OpenAwait and Watch), under
// the notices or the streams owner and the request ID. A callback runs
// in whatever goroutine resolves the step, so it never writes to the
// socket (whose writes have no deadline) and never blocks: it queues the
// frame and wakes the pusher, one goroutine started on the session's
// first push, which sends all that has queued in one write. A callback
// can beat its request's first answers (the step resolves as soon as the
// shard unlocks); such an early event is kept and queued by the dispatch
// loop right behind them.
type pusher struct {
	// notices leaves when the client disconnects; a stream's waiters
	// under streams are withdrawn when it ends.
	notices, streams *notify.Owner
	// out keeps frames in queue order on the wire, whoever moves them.
	out sync.Mutex

	mu sync.Mutex
	// answered holds the open IDs whose first answer is queued and whose
	// notice is not; early holds notices that beat their first answer;
	// watches holds the streams, from before their waiters are registered
	// until they end.
	answered map[uint64]struct{}
	early    map[uint64]netproto.Response
	watches  map[uint64]*fileWatch
	// queue is what the pusher sends next, sending what it is sending
	// (the two swap, so neither is reallocated).
	queue, sending []netproto.Response
	wake           chan struct{}
	// draining: the daemon is shutting down and has answered every
	// notice and stream owed so far; closed: the session is gone.
	draining, closed bool
}

// notice renders a step's fate as the terminal second answer of open id.
func notice(id uint64, ev notify.Event) netproto.Response {
	if ev.Kind == notify.FileFailed {
		return netproto.Response{ID: id, Code: netproto.CodeFailed, Err: ev.Err,
			Attempts: ev.Attempts, RetryAfterNs: ev.RetryAfter, Done: true}
	}
	return netproto.Response{ID: id, OK: true, Ready: true, Done: true}
}

// drainingNotice ends every open and stream still owed a frame at shutdown.
func drainingNotice(id uint64) netproto.Response {
	return netproto.Response{ID: id, Code: netproto.CodeDraining, Err: "daemon shutting down", Done: true}
}

// openMissed is the dispatch loop's half, run right after it queued the
// first answer of open id, a miss: the notice that already came is
// queued behind it, otherwise the callback will hand it to the pusher.
func (sess *session) openMissed(id uint64) {
	n := &sess.pusher
	n.mu.Lock()
	resp, early := n.early[id]
	send := !n.closed
	switch {
	case !send:
	case early:
		delete(n.early, id)
	case n.draining:
		resp = drainingNotice(id)
	default:
		n.answered[id] = struct{}{}
		send = false
	}
	n.mu.Unlock()
	if send {
		sess.reply(resp)
	}
}

// resolved is the notices owner's callback: the notice of open id.
func (sess *session) resolved(id uint64, ev notify.Event) {
	n := &sess.pusher
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.answered[id]; ok {
		delete(n.answered, id)
		n.queue = append(n.queue, notice(id, ev))
		sess.kickLocked()
		return
	}
	if n.closed || n.draining {
		return // already told, or nobody left to tell
	}
	n.early[id] = notice(id, ev)
}

// kickLocked wakes the pusher, starting it on the first push.
func (sess *session) kickLocked() {
	n := &sess.pusher
	if n.closed {
		return
	}
	if n.wake == nil {
		n.wake = make(chan struct{}, 1)
		go sess.push(n.wake)
	}
	select {
	case n.wake <- struct{}{}:
	default: // the pusher has a wake-up pending and will see this one
	}
}

// push is the session's pusher. It ends when the session does.
func (sess *session) push(wake <-chan struct{}) {
	for range wake {
		sess.pushOut()
	}
}

// pushOut sends every queued frame in one write, unless the session is
// gone.
func (sess *session) pushOut() {
	n := &sess.pusher
	n.out.Lock()
	defer n.out.Unlock()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.queue, n.sending = n.sending[:0], n.queue
	batch := n.sending
	n.mu.Unlock()
	for i := range batch {
		sess.check("encode", sess.c.EnqueueResponse(&batch[i]))
	}
	sess.flush()
	clear(batch) // pins no error text
}

// drain is the graceful half of shutdown: every open owed its notice and
// every live stream get a terminal draining frame (a retryable error,
// not a dead connection) behind what was queued, flushed with what the
// dispatch loop answered. A later miss or stream is told so at once.
func (sess *session) drain() {
	n := &sess.pusher
	n.mu.Lock()
	n.draining = true
	for id := range n.answered {
		n.queue = append(n.queue, drainingNotice(id))
	}
	clear(n.answered)
	for id, w := range n.watches {
		if w.live {
			sess.endLocked(id, w)
			n.queue = append(n.queue, drainingNotice(id))
		}
	}
	n.mu.Unlock()
	sess.pushOut()
}

// leave is disconnect cleanup, run before the session's references are
// released: its waiters stop counting (so ClientDisconnected dismantles
// what it would without them) and the pusher ends.
func (sess *session) leave() {
	n := &sess.pusher
	n.notices.Leave()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for id, w := range n.watches {
		sess.endLocked(id, w)
	}
	n.answered, n.early = nil, nil
	if n.wake != nil {
		close(n.wake)
	}
}
