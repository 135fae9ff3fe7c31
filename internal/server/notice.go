package server

import (
	"sync"

	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// notices is a session's ledger of missed opens still owed their second
// answer, the notice. The miss registers a hub callback (core's
// OpenAwait, the session's notify.Owner, the open's request ID as tag)
// in the same shard-lock hold that decided it; the callback
// runs in whatever goroutine resolves the step — the launcher's, a
// release's, another client's — so it never writes to the socket, whose
// writes have no deadline. It hands the notice to the session's pusher,
// one goroutine started on the session's first notice, which queues
// whatever has accumulated and flushes it in one write.
//
// A notice must follow its open's first answer on the wire. The
// callback can run before the dispatch loop has queued that answer (the
// step resolves as soon as the shard unlocks); such an early notice is
// parked and queued by the dispatch loop right behind the answer.
type notices struct {
	// owner registers the session's notice waiters with the hub, each
	// under its open's request ID; it leaves when the client disconnects.
	owner *notify.Owner

	mu sync.Mutex
	// answered holds the open IDs whose first answer is queued and whose
	// notice is not; early holds notices that beat their first answer.
	answered map[uint64]struct{}
	early    map[uint64]netproto.Response
	// queue is what the pusher sends next, sending what it is sending
	// (the two swap, so neither is reallocated); wake, once the pusher
	// runs, tells it there is more.
	queue, sending []netproto.Response
	wake           chan struct{}
	// draining: the daemon is shutting down and has answered every
	// notice owed so far; closed: the session is gone.
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

// drainingNotice is the notice every open still owed one gets at shutdown.
func drainingNotice(id uint64) netproto.Response {
	return netproto.Response{ID: id, Code: netproto.CodeDraining, Err: "daemon shutting down", Done: true}
}

// openMissed is the dispatch loop's half, run right after it queued the
// first answer of open id, a miss: the notice that already came is
// queued behind it, otherwise the callback will hand it to the pusher.
func (sess *session) openMissed(id uint64) {
	n := &sess.notices
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
		if n.answered == nil {
			n.answered = map[uint64]struct{}{}
		}
		n.answered[id] = struct{}{}
		send = false
	}
	n.mu.Unlock()
	if send {
		sess.reply(resp)
	}
}

// resolved is the hub callback's half: the notice of open id.
func (sess *session) resolved(id uint64, ev notify.Event) {
	n := &sess.notices
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.answered[id]; ok {
		delete(n.answered, id)
		n.queue = append(n.queue, notice(id, ev))
		if n.wake == nil {
			n.wake = make(chan struct{}, 1)
			go sess.push(n.wake)
		}
		select {
		case n.wake <- struct{}{}:
		default: // the pusher has a wake-up pending and will see this one
		}
		return
	}
	if n.closed || n.draining {
		return // already told, or nobody left to tell
	}
	if n.early == nil {
		n.early = map[uint64]netproto.Response{}
	}
	n.early[id] = notice(id, ev)
}

// push is the session's pusher: each wake-up sends every queued notice
// in one write. It ends when the session does.
func (sess *session) push(wake <-chan struct{}) {
	n := &sess.notices
	for range wake {
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
}

// drainNotices answers every notice owed so far with draining, and every
// later first answer of a miss with its draining notice at once.
func (sess *session) drainNotices() {
	n := &sess.notices
	n.mu.Lock()
	n.draining = true
	answered := n.answered
	n.answered = nil
	n.mu.Unlock()
	for id := range answered {
		sess.reply(drainingNotice(id))
	}
}

// leaveNotices is disconnect cleanup, run before the session's
// references are released: the session's hub waiters stop counting (so
// ClientDisconnected dismantles what it would without them), nothing
// more is written, and the pusher ends.
func (sess *session) leaveNotices() {
	n := &sess.notices
	n.owner.Leave()
	n.mu.Lock()
	n.closed = true
	n.answered, n.early = nil, nil
	if n.wake != nil {
		close(n.wake)
	}
	n.mu.Unlock()
}
