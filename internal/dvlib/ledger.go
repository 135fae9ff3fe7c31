package dvlib

import (
	"fmt"
	"sync"

	"simfs/internal/netproto"
)

// ledger is the client side of one readiness stream — an acquire's or a
// watch's — and the stream's entry in the client's request table. It
// reports each file's resolution on ch exactly once, however often the
// daemon says it (the re-subscription after a reconnect reports resident
// files again), then one Done event, and closes ch. Req and Watch are
// its two views.
type ledger struct {
	ctx   *Context
	files []string
	ch    chan WatchEvent
	// holds marks an acquire: its references on the daemon enter the
	// client's reference ledger when it ends cleanly, and the daemon's
	// disconnect cleanup releases them — so a reconnect fails it with
	// ErrReconnecting (re-issuing could double work the caller already
	// saw), where it re-subscribes a watch, which holds nothing.
	holds  bool
	doneCh chan struct{} // an acquire's: closed when the stream has ended
	// id is the request ID the daemon knows the stream by, which an
	// unsubscribe names. Guarded by the client's mu: a reconnect re-arms
	// a watch under a new one.
	id uint64

	mu       sync.Mutex
	resolved map[string]bool // file → ready, for every file reported so far
	err      string          // the last failure reported, per-file or terminal
	done     bool
}

// start sends the stream's request: op, for the files.
func (l *ledger) start(ctx *Context, op string, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("dvlib: %s of zero files", op)
	}
	l.ctx, l.files = ctx, append([]string(nil), files...)
	// One slot per file plus the Done event: each file is reported at
	// most once, so HandleResponse never blocks the read loop.
	l.ch = make(chan WatchEvent, len(files)+1)
	l.resolved = make(map[string]bool, len(files))
	if l.holds = op == netproto.OpAcquire; l.holds {
		l.doneCh = make(chan struct{})
	}
	c := ctx.c
	id, err := c.subscribe(op, netproto.FilesBody{Context: ctx.name, Files: l.files}, l)
	if err != nil {
		return err
	}
	c.mu.Lock()
	// A reconnect may already have re-armed the stream under a newer ID.
	if l.id == 0 {
		l.id = id
	}
	c.mu.Unlock()
	return nil
}

// HandleResponse feeds one wire frame to the ledger.
func (l *ledger) HandleResponse(resp *netproto.Response) {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	if resp.Err != "" {
		l.err = resp.Err
	}
	if _, seen := l.resolved[resp.File]; resp.File != "" && !seen {
		l.resolved[resp.File] = resp.Ready
		l.ch <- WatchEvent{File: resp.File, Ready: resp.Ready, Err: resp.Err, Code: resp.Code}
	}
	// Terminal, not just Done: a refusal of the whole stream (an unknown
	// context, a bad body) ends it with or without it.
	l.done = resp.Terminal()
	if l.done {
		ev := WatchEvent{Done: true}
		if resp.File == "" { // failed as a whole, or cut short
			ev.Err, ev.Code = resp.Err, resp.Code
		}
		l.ch <- ev
		close(l.ch)
	}
	ended, clean := l.done, l.err == ""
	l.mu.Unlock()
	if !ended || !l.holds {
		return
	}
	if clean {
		// Recorded before anyone waiting on doneCh can release a file: a
		// release consults the record.
		for _, f := range l.files {
			l.ctx.c.trackHeld(l.ctx.name, f, +1)
		}
	}
	close(l.doneCh)
}

// cancel ends the stream locally — a terminal event carrying reason,
// unless the stream had ended already — and withdraws its table entry.
// It returns the ID to unsubscribe on the daemon. The entry is found and
// removed under the client's mu, so a reconnect either re-armed the
// stream before (and this is the new ID) or finds it ended.
func (l *ledger) cancel(reason string) uint64 {
	l.HandleResponse(&netproto.Response{Err: reason, Done: true})
	c := l.ctx.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls.Remove(l.id)
	return l.id
}

// remaining returns the files still owed a report — what a reconnect
// re-subscribes: none once the stream has ended.
func (l *ledger) remaining() (files []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.files {
		if _, seen := l.resolved[f]; !seen && !l.done {
			files = append(files, f)
		}
	}
	return files
}

// status renders the stream's state as a SIMFS_Status.
func (l *ledger) status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{Ready: l.done && l.err == "", Err: l.err}
}
