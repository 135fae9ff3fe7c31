package dvlib

import (
	"context"

	"simfs/internal/netproto"
)

// Status mirrors SIMFS_Status: the error state of the request (paper
// Sec. III-C2). A file's estimated waiting time is Context.EstWait's.
type Status struct {
	Ready bool
	Err   string
}

// Req is the request handle returned by the non-blocking acquire
// (SIMFS_Req): Wait/Test/Waitsome/Testsome operate on it.
type Req struct {
	l ledger
	// consumed tracks indices already reported by Waitsome/Testsome
	// (guarded by the ledger's lock).
	consumed map[int]bool
}

// Acquire implements SIMFS_Acquire: it references all files, triggers
// re-simulations for the missing ones and blocks until every file is
// available. The returned Status carries the error state if a
// re-simulation failed.
func (ctx *Context) Acquire(files ...string) (Status, error) {
	req, err := ctx.AcquireNB(files...)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// AcquireCtx is Acquire honoring a context deadline: when cx expires
// before every file is available, the acquire is canceled — its
// references are released and its subscription dropped, so the daemon
// may dismantle re-simulations nobody else waits for — and cx's error is
// returned alongside the partial status.
func (ctx *Context) AcquireCtx(cx context.Context, files ...string) (Status, error) {
	req, err := ctx.AcquireNB(files...)
	if err != nil {
		return Status{}, err
	}
	st, err := req.WaitCtx(cx)
	if err != nil {
		_ = req.Cancel()
		return st, err
	}
	return st, nil
}

// AcquireNB implements SIMFS_Acquire_nb: like Acquire but it returns
// immediately with a request handle to wait or test on.
func (ctx *Context) AcquireNB(files ...string) (*Req, error) {
	r := &Req{consumed: map[int]bool{}}
	if err := r.l.start(ctx, netproto.OpAcquire, files); err != nil {
		return nil, err
	}
	return r, nil
}

// Wait implements SIMFS_Wait: it blocks until the acquire completes and
// returns its status. An acquire a connection reset interrupts is
// re-armed on the fresh session, which takes its references again.
func (r *Req) Wait() (Status, error) {
	<-r.l.doneCh
	return r.l.status(), nil
}

// WaitCtx is Wait honoring a context deadline: it returns the context's
// error (and the partial status so far) when cx expires first. The
// acquire itself keeps running; call Cancel to abandon it.
func (r *Req) WaitCtx(cx context.Context) (Status, error) {
	select {
	case <-r.l.doneCh:
		return r.l.status(), nil
	case <-cx.Done():
		return r.l.status(), cx.Err()
	}
}

// Cancel abandons the acquire: the daemon-side subscription is dropped
// and every file reference the acquire took is released, so the DV may
// evict the files again — and dismantle re-simulations nobody else is
// waiting for, through its client-cancellation path. Canceling a
// completed acquire just releases the references. The wire side is
// fire-and-forget: Cancel runs on the deadline path, where waiting for
// an unresponsive daemon's acknowledgements would defeat the deadline
// it serves — only frame-write failures are reported.
func (r *Req) Cancel() error {
	err := r.l.ctx.c.post(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: r.l.cancel("canceled")})
	// Once the stream's end is recorded, counted is final: the releases
	// below drop what the ledger counted, or, for an acquire canceled in
	// flight, server-side references it never counted.
	<-r.l.doneCh
	for _, f := range r.l.files {
		if perr := r.l.ctx.c.post(netproto.OpRelease, netproto.FileBody{Context: r.l.ctx.name, File: f}); err == nil {
			err = perr
		}
		if r.l.counted {
			r.l.ctx.c.trackHeld(r.l.ctx.name, f, -1)
		}
	}
	return err
}

// Test implements SIMFS_Test: flag is true when the acquire has completed.
func (r *Req) Test() (flag bool, st Status, err error) {
	select {
	case <-r.l.doneCh:
		return true, r.l.status(), nil
	default:
		return false, r.l.status(), nil
	}
}

// Waitsome implements SIMFS_Waitsome: it blocks until at least one
// not-yet-reported file is available and returns the indices (into the
// acquire's file list) of all newly available files.
func (r *Req) Waitsome() (readyIdx []int, st Status, err error) {
	// Fast path: anything new already marked ready?
	if idx := r.takeNewReady(); len(idx) > 0 {
		return idx, r.l.status(), nil
	}
	if r.allConsumed() {
		return nil, r.l.status(), nil
	}
	select {
	case <-r.l.ch: // an event: something resolved (or, closed, everything has)
	case <-r.l.doneCh:
	}
	return r.takeNewReady(), r.l.status(), nil
}

// Testsome implements SIMFS_Testsome: like Waitsome but non-blocking.
func (r *Req) Testsome() (readyIdx []int, st Status, err error) {
	return r.takeNewReady(), r.l.status(), nil
}

// Files returns the acquire's file list (indices match Waitsome output).
func (r *Req) Files() []string { return append([]string(nil), r.l.files...) }

func (r *Req) takeNewReady() []int {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	var idx []int
	for i, f := range r.l.files {
		if r.l.resolved[f] && !r.consumed[i] {
			r.consumed[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

func (r *Req) allConsumed() bool {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	for i := range r.l.files {
		if !r.consumed[i] {
			return false
		}
	}
	return true
}
