// Package dvlib is the client library of SimFS (paper Sec. III-C): it
// connects analysis applications and simulators to the DV daemon. It
// provides both the transparent mode — open/read/close calls that behave
// like ordinary file I/O but block on virtualized (missing) files until
// the DV re-simulates them — and the explicit SIMFS_* API
// (Init/Finalize/Acquire/Acquire_nb/Wait/Test/Waitsome/Testsome/Release/
// Bitrep) for virtualization-aware applications.
//
// Connections speak the versioned envelope protocol (internal/netproto):
// Dial performs the hello handshake — version and capability
// negotiation, after which every frame is binary — and fails with a
// CodeVersion *Error against a daemon that does not speak protocol 4
// with the binary codec. Failures surface as *Error values carrying the
// daemon's structured error code, so callers dispatch on ErrCodeOf(err)
// instead of matching message text. Cancellation and deadlines plumb
// through context.Context: DialContext, AcquireCtx and Req.WaitCtx honor
// the context, and a canceled acquire releases its references so the
// daemon may dismantle re-simulations nobody else is waiting for.
//
// Requests coalesce into batches: every call's frame lands in a write
// buffer and is flushed — one syscall for however many frames queued —
// when the caller has to block for a response (or by an explicit
// Flush); a call already answered sent its frame long since. The
// pipelined variants (Context.OpenAsync / Context.ReleaseAsync) expose
// this: issue a window of calls, then Wait on the handles; the daemon
// answers a connection's frames in order.
//
// The Admin client (Client.Admin) exposes the daemon's control plane:
// live scheduler reconfiguration, cache-policy swaps, context
// registration/deregistration and per-context drain/resume.
package dvlib

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/vfs"
)

// ErrReconnecting reports that the connection was reset while a
// control-plane mutation (sched-set, cache-policy-set, ctx-register,
// ctx-deregister, drain, resume, quarantine-reset) was in flight. The
// client has reconnected (or is reconnecting) and resynced its reference
// state with the daemon, but it cannot know whether the change took
// effect before the reset, and replaying it could undo another client's
// change made since — the caller must decide whether to retry. Every
// other request is replayed on the fresh session and never fails with
// this.
var ErrReconnecting = errors.New("connection reset while the request was in flight; state resynced — retry if still wanted")

// ErrWaited reports a second Wait on a pipelined call (OpenCall,
// ReleaseCall): the first Wait took the call's outcome.
var ErrWaited = errors.New("dvlib: call already waited for")

// Error is a structured daemon-reported failure: the machine-readable
// code, the operation that failed, and the human-readable message.
type Error struct {
	Code netproto.ErrCode
	Op   string
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("dvlib: %s: %s (%s)", e.Op, e.Msg, e.Code)
	}
	return fmt.Sprintf("dvlib: %s: %s", e.Op, e.Msg)
}

// ErrCodeOf extracts the structured code from an error chain ("" when
// the error did not come from the daemon).
func ErrCodeOf(err error) netproto.ErrCode {
	var de *Error
	if errors.As(err, &de) {
		return de.Code
	}
	return ""
}

// Client is a connection to the DV daemon. It is safe for concurrent use.
//
// Framing, write batching and the handshake live in netproto.Conn; the
// in-flight request table (IDs, reply demux, streams held to their
// terminal frame) is a netproto.Pending. What stays here is what only a
// client needs: the reconnect gate, the reference ledger and the replay
// of in-flight calls onto a fresh connection.
type Client struct {
	name    string
	addr    string
	dialCfg dialConfig

	// calls outlives connections: a reconnect swaps conn but keeps the
	// table, so surviving calls keep their IDs and IDs stay monotonic.
	// Its entries are *pendingCall (one response) or *ledger (a watch's
	// or an acquire's stream).
	calls *netproto.Pending

	mu      sync.Mutex
	recCond *sync.Cond // signals the end of a reconnect (guards reconnecting)
	// conn is the current transport generation and info what its
	// handshake negotiated; a reconnect replaces both.
	conn *netproto.Conn
	info netproto.HelloInfo
	// held is the client-side reference ledger (context → file → count).
	// After a reconnect the daemon has released everything this session
	// held (disconnect cleanup), so the ledger is replayed as opens to
	// rebuild the reference state. Only a reconnect reads it, so it is
	// kept only by a client dialed WithReconnect.
	held         map[string]map[string]int
	reconnecting bool
	closed       bool
	readErr      error

	// nmu guards notices: the ready notices of missed opens, by file,
	// not yet taken by WaitAvailable nor dropped by a release. nnotices
	// counts them, so a hit or a release finding none takes no lock.
	nmu      sync.Mutex
	notices  map[netproto.FileBody]*notice
	nnotices atomic.Int32
}

// dialConfig collects DialOption settings.
type dialConfig struct {
	reconnect *ReconnectConfig
}

// DialOption customizes Dial/DialContext behavior.
type DialOption func(*dialConfig)

// ReconnectConfig tunes WithReconnect's backoff loop. The zero value
// gets sensible defaults (50ms base doubling to 2s, no jitter, give up
// after 30s).
type ReconnectConfig struct {
	BaseBackoff time.Duration // delay before the second attempt (first is immediate)
	MaxBackoff  time.Duration // cap on the doubled delay
	Jitter      float64       // ±fraction applied to each delay, in [0, 1]
	MaxElapsed  time.Duration // total budget before the client gives up for good
	Seed        int64         // roots the jitter rng (pinned in chaos tests)
}

func (cfg ReconnectConfig) withDefaults() ReconnectConfig {
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.MaxElapsed <= 0 {
		cfg.MaxElapsed = 30 * time.Second
	}
	// Above 1 a jitter draw can go negative: a redial with no backoff.
	cfg.Jitter = min(max(cfg.Jitter, 0), 1)
	return cfg
}

// WithReconnect makes the client survive connection loss: when the read
// loop hits a broken stream, the client redials with exponential backoff,
// re-runs the hello handshake, re-opens every file in its reference
// ledger, re-arms in-flight acquires and active watches, and replays
// every other in-flight call in its original order. The ledger is
// re-opened before the calls are re-sent, so a replayed release drops a
// reference the fresh session holds, exactly once, whether or not its
// first copy landed. Only the control-plane mutations fail, with
// ErrReconnecting: replaying them could undo another client's change.
func WithReconnect(cfg ReconnectConfig) DialOption {
	c := cfg.withDefaults()
	return func(d *dialConfig) { d.reconnect = &c }
}

// Dial connects to the daemon at addr under the given client name (the DV
// uses it to associate prefetch agents and reference counts).
func Dial(addr, clientName string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, clientName, opts...)
}

// DialContext is Dial honoring a context for both the TCP connect and
// the protocol handshake.
func DialContext(ctx context.Context, addr, clientName string, opts ...DialOption) (*Client, error) {
	c := &Client{
		name:  clientName,
		addr:  addr,
		calls: netproto.NewPending(),
		held:  map[string]map[string]int{},
	}
	for _, opt := range opts {
		opt(&c.dialCfg)
	}
	c.recCond = sync.NewCond(&c.mu)
	conn, info, err := netproto.Dial(ctx, addr, c.calls.NextID(), c.hello())
	if err != nil {
		var he *netproto.HelloError
		switch {
		case errors.As(err, &he):
			return nil, &Error{Code: he.Code, Op: "dial", Msg: he.Msg}
		case err == ctx.Err():
			return nil, err
		}
		return nil, fmt.Errorf("dvlib: %w", err)
	}
	c.conn, c.info = conn, info
	go c.readLoop()
	return c, nil
}

// hello is the client's half of the handshake: the initial dial and
// every reconnect send the same one.
func (c *Client) hello() netproto.HelloBody {
	return netproto.HelloBody{Version: netproto.ProtoVersion, Client: c.name,
		Caps: []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapBinary}}
}

// transport returns the current connection and what it negotiated.
func (c *Client) transport() (*netproto.Conn, netproto.HelloInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn, c.info
}

// ProtoVersion returns the protocol version negotiated in the handshake.
func (c *Client) ProtoVersion() int {
	_, info := c.transport()
	return info.Version
}

// Capabilities returns the capability flags the daemon advertised.
func (c *Client) Capabilities() []string {
	_, info := c.transport()
	return append([]string(nil), info.Caps...)
}

// HasCapability reports whether the daemon advertised the capability in
// the hello handshake.
func (c *Client) HasCapability(cap string) bool {
	_, info := c.transport()
	return netproto.HasCap(info.Caps, cap)
}

// Close tears down the connection. The daemon releases any references the
// client still holds.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.recCond.Broadcast()
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// readLoop delivers response frames until the connection fails, then
// either carries on over a reconnected transport or ends the client.
func (c *Client) readLoop() {
	for {
		conn, _ := c.transport()
		err := c.calls.Serve(conn, nil)
		if !c.tryReconnect() {
			c.die(err)
			return
		}
	}
}

// settle updates the reference ledger from a call the daemon answered
// without an error: an open holds a reference, a release drops one.
func (c *Client) settle(env *netproto.Envelope) {
	b, ok := env.File()
	if !ok {
		return
	}
	switch env.Op {
	case netproto.OpOpen:
		c.trackHeld(b.Context, b.File, +1)
	case netproto.OpRelease:
		c.trackHeld(b.Context, b.File, -1)
	}
}

// trackHeld adjusts the client-side reference ledger, which exists only
// for a reconnect to read.
func (c *Client) trackHeld(ctxName, file string, delta int) {
	if !c.reconnectEnabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.held[ctxName]
	if m == nil {
		if delta <= 0 {
			return
		}
		m = map[string]int{}
		c.held[ctxName] = m
	}
	m[file] += delta
	if m[file] <= 0 {
		delete(m, file)
	}
}

// die is the terminal connection-loss path (no reconnect, or reconnect
// exhausted): every pending call and subscription fails.
func (c *Client) die(err error) {
	c.mu.Lock()
	c.readErr = err
	c.reconnecting = false
	c.recCond.Broadcast()
	c.mu.Unlock()
	c.calls.Fail(netproto.Response{Err: "connection lost", Done: true})
}

// pendingCall is an in-flight request expecting one response: its frame
// is queued (and possibly already flushed) and the read loop will leave
// the response in resp, or a reconnect's typed error in err. env is the
// request as built, ID unset — what settle reads the ledger entry from
// and what a reconnect replays, under the ID the table holds the call
// at; it is never written once the call is registered. state moves
// pending → answered, or, when the caller waits first, pending → parked
// (on ch) → answered: a call answered before its Wait costs no channel
// operation.
type pendingCall struct {
	c     *Client
	id    uint64
	env   netproto.Envelope
	resp  netproto.Response
	err   error
	state atomic.Int32
	ch    chan struct{}
}

const (
	callPending int32 = iota
	callParked
	callAnswered
)

// tokens recycles the one-slot wake-up channels of parked calls. One
// goes back only from the await a token woke, when nothing can send on
// it or close it again: a reconnect's closed channel and one abandoned
// by a canceled context (the read loop may still deliver) never do.
var tokens = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// records recycles call records, so a settled call leaves no garbage.
// One goes back only from the await that read the read loop's answer,
// after the answer's last touch (its swap, or the token it sends): one
// abandoned by a canceled context or failed by the reconnect sweep never.
var records = sync.Pool{New: func() any { return new(pendingCall) }}

// answer settles the call with resp, or with err when the reconnect
// sweep fails it, and wakes a parked caller: with a token, or for err
// by closing the channel. Only the read loop answers.
func (p *pendingCall) answer(err error) {
	if p.err = err; p.state.Swap(callAnswered) != callParked {
		return
	}
	if err != nil {
		close(p.ch)
	} else {
		p.ch <- struct{}{}
	}
}

// HandleResponse settles the ledger and wakes the awaiting caller. The
// one call answered twice is a missed open: its ID passes to the file's
// notice first, so the second answer never reaches p.
func (p *pendingCall) HandleResponse(resp *netproto.Response) {
	if resp.Err == "" {
		p.c.settle(&p.env)
	}
	if p.env.Op == netproto.OpOpen {
		file, _ := p.env.File()
		if !resp.Terminal() {
			p.c.awaitNotice(resp.ID, file)
		} else if resp.Available {
			// A hit outdates whatever an earlier miss of the file left.
			p.c.takeNotice(file)
		}
	}
	p.resp = *resp
	p.answer(nil)
}

// newEnv builds a request envelope; request assigns its ID.
func newEnv(op string, body any) netproto.Envelope {
	env, _ := netproto.NewEnvelope(0, op, body) // documented always-nil
	return env
}

// call sends a request expecting exactly one response.
func (c *Client) call(op string, body any) (netproto.Response, error) {
	return c.roundTrip(context.Background(), newEnv(op, body))
}

// callCtx is call honoring a context deadline/cancellation. A canceled
// call abandons the response (the read loop drops it as unknown); the
// request may still have taken effect on the daemon.
func (c *Client) callCtx(ctx context.Context, op string, body any) (netproto.Response, error) {
	return c.roundTrip(ctx, newEnv(op, body))
}

// roundTrip sends env and blocks for its one response.
func (c *Client) roundTrip(ctx context.Context, env netproto.Envelope) (resp netproto.Response, err error) {
	p, err := c.start(env)
	if err == nil {
		err = c.await(ctx, p, &resp)
	}
	return resp, err
}

// errClosed is what a request on a closed or dead client fails with
// when no read error explains the death.
var errClosed = errors.New("dvlib: client closed")

// request is the one way a frame leaves the client. It blocks while a
// reconnect is swapping the connection (new requests must not
// interleave with the replay), registers h under a fresh request ID —
// nil h is a fire-and-forget post, whose answer the read loop drops as
// unknown — and queues the frame. Without flush the frame rides the
// write buffer until the caller awaits, Flush is called, or the buffer
// fills. Gate, registration and connection are read under one lock
// hold, so a reconnect's sweep sees the request entirely or not at all.
func (c *Client) request(h netproto.ResponseHandler, stream bool, env netproto.Envelope, flush bool) (uint64, error) {
	c.mu.Lock()
	for c.reconnecting && !c.closed && c.readErr == nil {
		c.recCond.Wait()
	}
	err := c.readErr
	if err == nil && c.closed {
		err = errClosed
	}
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	var id uint64
	ok := true
	if h == nil {
		id = c.calls.NextID()
	} else {
		id, ok = c.calls.Add(h, stream)
	}
	conn := c.conn
	c.mu.Unlock()
	if !ok {
		return 0, errClosed
	}

	env.ID = id
	if err = conn.EnqueueRequest(&env); err == nil && flush {
		err = c.flushOn(conn)
	}
	if err != nil && h != nil {
		c.calls.Remove(id)
	}
	return id, err
}

// start registers a record from the pool as a pending call and queues
// its request frame. An open stays registered past its first answer, for
// a miss's notice.
func (c *Client) start(env netproto.Envelope) (p *pendingCall, err error) {
	p = records.Get().(*pendingCall)
	p.c, p.env = c, env
	p.id, err = c.request(p, env.Op == netproto.OpOpen, env, false)
	return p, err
}

// await returns the call's outcome, its response copied to resp unless
// that is nil, parking only if it has not come — and only then flushing
// the queued frames first (the daemon cannot answer a request it has
// not received; an answered one was sent). A normal answer puts p back
// in the pool: the caller must not touch p after await.
func (c *Client) await(ctx context.Context, p *pendingCall, resp *netproto.Response) error {
	if p.state.Load() != callAnswered {
		if err := c.Flush(); err != nil {
			c.abandon(p.id)
			return err
		}
		if p.ch = tokens.Get().(chan struct{}); !p.state.CompareAndSwap(callPending, callParked) {
			tokens.Put(p.ch) // answered since the load: nobody saw the channel
		} else {
			select {
			case _, ok := <-p.ch:
				if ok {
					tokens.Put(p.ch)
				}
			case <-ctx.Done():
				c.calls.Remove(p.id)
				return ctx.Err()
			}
		}
	}
	if p.err != nil {
		return p.err
	}
	var err error
	if p.resp.Err != "" {
		err = &Error{Code: p.resp.Code, Op: p.env.Op, Msg: p.resp.Err}
	}
	if resp != nil {
		*resp = p.resp
	}
	*p = pendingCall{}
	records.Put(p)
	return err
}

// post sends a request without waiting for its response. Used on
// cancellation paths, where blocking on an unresponsive daemon would
// defeat the deadline being enforced.
func (c *Client) post(op string, body any) error {
	_, err := c.request(nil, false, newEnv(op, body), true)
	return err
}

// subscribe sends a request whose responses stream to h until a
// terminal frame arrives. It returns the request ID, which names the
// subscription in an unsubscribe.
func (c *Client) subscribe(op string, body any, h netproto.ResponseHandler) (uint64, error) {
	return c.request(h, true, newEnv(op, body), true)
}

// reconnectEnabled reports whether the client was dialed WithReconnect.
func (c *Client) reconnectEnabled() bool { return c.dialCfg.reconnect != nil }

// Flush sends all queued request frames in a single write. Callers only
// need it when pipelining requests whose responses nothing is awaiting
// yet; the blocking APIs flush implicitly.
func (c *Client) Flush() error {
	conn, _ := c.transport()
	return c.flushOn(conn)
}

func (c *Client) flushOn(conn *netproto.Conn) error {
	err := conn.Flush()
	if err != nil && c.reconnectEnabled() {
		// A write failure is survivable: pending calls are replayed from
		// their retained bodies once the connection is back, and posts are
		// fire-and-forget by contract. The failed write closed the
		// connection, so the read loop notices and reconnects; report
		// success to the caller.
		return nil
	}
	return err
}

// Contexts lists the simulation contexts the daemon serves.
func (c *Client) Contexts() ([]string, error) {
	resp, err := c.call(netproto.OpContexts, nil)
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// pingTimeout bounds Ping: a liveness probe that blocks forever answers
// the question the wrong way.
const pingTimeout = 5 * time.Second

// Ping checks daemon liveness. Unlike the data-plane calls it carries an
// explicit deadline: it reports an unresponsive daemon within
// pingTimeout instead of blocking until the connection dies.
func (c *Client) Ping() error {
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	_, err := c.callCtx(ctx, netproto.OpPing, nil)
	return err
}

// Context is an open simulation context (SIMFS_Init's handle).
type Context struct {
	c    *Client
	name string
	info netproto.ContextInfo
	area *vfs.Disk // nil if the storage area is not locally reachable
}

// Init opens a simulation context (SIMFS_Init). If the context's storage
// area is reachable as a local directory, transparent reads serve file
// contents from it.
func (c *Client) Init(contextName string) (*Context, error) {
	resp, err := c.call(netproto.OpContextInfo, netproto.CtxBody{Context: contextName})
	if err != nil {
		return nil, err
	}
	if resp.Info == nil {
		return nil, &Error{Op: netproto.OpContextInfo, Msg: "daemon sent no context info"}
	}
	ctx := &Context{c: c, name: contextName, info: *resp.Info}
	if resp.Info.StorageDir != "" {
		if area, err := vfs.NewDisk(resp.Info.StorageDir); err == nil {
			ctx.area = area
		}
	}
	return ctx, nil
}

// Finalize closes the context handle (SIMFS_Finalize). It is a no-op on
// the wire: references are dropped per file via Release/Close.
func (ctx *Context) Finalize() error { return nil }

// Name returns the context name.
func (ctx *Context) Name() string { return ctx.name }

// Info returns the context parameters the daemon advertised.
func (ctx *Context) Info() netproto.ContextInfo { return ctx.info }

// Filename returns the output step file name for a 1-based step index,
// following the context's naming convention.
func (ctx *Context) Filename(step int) string {
	return model.StepFilename(ctx.info.FilePrefix, step, ctx.info.FileSuffix)
}

// OpenResult reports an Open outcome.
type OpenResult struct {
	Available bool
	EstWait   time.Duration
}

// Open is the transparent-mode open: non-blocking, it registers the access
// with the DV (starting a re-simulation if the file is missing) and takes
// a reference on the file. It returns on the daemon's first answer. For
// a missing file the daemon answers once more when the re-simulation
// has decided the file's fate; WaitAvailable waits for that notice.
func (ctx *Context) Open(file string) (OpenResult, error) {
	resp, err := ctx.fileCall(netproto.OpOpen, file)
	if err != nil {
		return OpenResult{}, err
	}
	return OpenResult{Available: resp.Available, EstWait: time.Duration(resp.EstWaitNs)}, nil
}

// fileEnv builds the request of a FileBody op on this context; the body
// stays typed from here to the wire.
func (ctx *Context) fileEnv(op, file string) netproto.Envelope {
	return netproto.NewFileEnvelope(0, op, netproto.FileBody{Context: ctx.name, File: file})
}

// fileCall round-trips a FileBody op.
func (ctx *Context) fileCall(op, file string) (netproto.Response, error) {
	return ctx.c.roundTrip(context.Background(), ctx.fileEnv(op, file))
}

// call is a pipelined call's handle: its record, until Wait detaches
// it. A record goes back to the pool once Wait has read its answer, so a
// second Wait finds none and fails with ErrWaited.
type call struct{ p atomic.Pointer[pendingCall] }

// start queues a FileBody op and points the handle at its record.
func (h *call) start(ctx *Context, op, file string) error {
	p, err := ctx.c.start(ctx.fileEnv(op, file))
	h.p.Store(p)
	return err
}

// wait detaches the record and awaits its outcome (see await).
func (h *call) wait(resp *netproto.Response) error {
	p := h.p.Swap(nil)
	if p == nil {
		return ErrWaited
	}
	return p.c.await(context.Background(), p, resp)
}

// OpenCall is a pipelined Open in flight: the request frame is queued on
// the connection; Wait flushes and blocks for the daemon's first answer
// when it has not come yet (a miss's notice goes to WaitAvailable, as
// after Open).
type OpenCall struct{ call }

// OpenAsync queues an Open without waiting for the response, enabling
// request pipelining: issue a window of OpenAsync/ReleaseAsync calls,
// then Wait on the handles. All queued frames go out in one write on
// the first Wait that has to wait (or an explicit Client.Flush).
func (ctx *Context) OpenAsync(file string) (*OpenCall, error) {
	oc := new(OpenCall)
	if err := oc.start(ctx, netproto.OpOpen, file); err != nil {
		return nil, err
	}
	return oc, nil
}

// Wait returns the open's result, flushing pending request frames and
// blocking when it has not come; a second Wait fails with ErrWaited.
func (oc *OpenCall) Wait() (OpenResult, error) {
	var resp netproto.Response
	if err := oc.wait(&resp); err != nil {
		return OpenResult{}, err
	}
	return OpenResult{Available: resp.Available, EstWait: time.Duration(resp.EstWaitNs)}, nil
}

// ReleaseCall is a pipelined Release in flight.
type ReleaseCall struct{ call }

// ReleaseAsync queues a Release without waiting for the response (the
// pipelined variant of Release/Close).
func (ctx *Context) ReleaseAsync(file string) (*ReleaseCall, error) {
	ctx.dropNotice(file)
	rc := new(ReleaseCall)
	if err := rc.start(ctx, netproto.OpRelease, file); err != nil {
		return nil, err
	}
	return rc, nil
}

// Wait returns the release's acknowledgement, flushing pending request
// frames and blocking when it has not come; a second Wait fails with
// ErrWaited.
func (rc *ReleaseCall) Wait() error {
	return rc.wait(nil)
}

// WaitAvailable blocks until the file is on disk (the blocking part of a
// transparent-mode read). The file must have been opened first. After an
// Open that missed it waits for the open's own notice, at no request of
// its own; otherwise — after a hit, an Acquire or a Prefetch, or when a
// reconnect cut the notice — it subscribes to the file through the
// daemon's notification hub (SIMFS_Wait). A failure is a *Error
// carrying the daemon's code: failed (the producing re-simulation died,
// or its interval is quarantined), not_produced (nobody is producing
// the file — open it first) or draining.
func (ctx *Context) WaitAvailable(file string) error {
	if n := ctx.c.takeNotice(netproto.FileBody{Context: ctx.name, File: file}); n != nil {
		<-n.ch
		tokens.Put(n.ch)
		switch {
		case n.resp.OK:
			return nil
		case !n.lost():
			return &Error{Code: n.resp.Code, Op: netproto.OpOpen, Msg: n.resp.Err}
		}
	}
	w, err := ctx.Watch(file)
	if err != nil {
		return err
	}
	for ev := range w.Events() {
		if ev.Err != "" {
			return &Error{Code: ev.Code, Op: netproto.OpSubscribe, Msg: ev.Err}
		}
		if ev.File == file && ev.Ready {
			return nil
		}
	}
	return errors.New("dvlib: watch ended before the file became available")
}

// WatchEvent is one notification from a file watch: a per-file
// resolution (File set, Ready or Err) or the final completion (Done).
// Code is the daemon's structured code for Err.
type WatchEvent struct {
	File  string
	Ready bool
	Err   string
	Code  netproto.ErrCode
	Done  bool
}

// Watch is a notification-only subscription to file availability,
// served by the daemon's notify hub. Unlike Acquire it takes no
// references; the watched files must be resident or already promised by
// a re-simulation (e.g. after Open or Prefetch). With auto-reconnect,
// watches survive connection loss: the client re-subscribes the files
// not yet resolved, and the ledger keeps a file that resolved just
// before the reset from being reported twice.
type Watch struct{ l ledger }

// Watch subscribes to the given files. Events arrive on Events(): one
// per file as it becomes ready (or fails), then a final Done event, after
// which the channel closes. A file that is neither on disk nor being
// produced resolves immediately with a per-file error event.
func (ctx *Context) Watch(files ...string) (*Watch, error) {
	w := new(Watch)
	if err := w.l.start(ctx, netproto.OpSubscribe, files); err != nil {
		return nil, err
	}
	return w, nil
}

// Events returns the watch's event stream.
func (w *Watch) Events() <-chan WatchEvent { return w.l.ch }

// Cancel tears down the watch: the daemon drops the subscription and the
// event channel closes after a final Done event. Canceling a completed
// watch is a no-op.
func (w *Watch) Cancel() error {
	_, err := w.l.ctx.c.call(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: w.l.cancel("unsubscribed")})
	return err
}

// Read is the transparent-mode read: it blocks until the file is available
// and returns its content from the storage area. Open must precede it.
func (ctx *Context) Read(file string) ([]byte, error) {
	if err := ctx.WaitAvailable(file); err != nil {
		return nil, err
	}
	if ctx.area == nil {
		return nil, fmt.Errorf("dvlib: storage area of context %q is not locally reachable", ctx.name)
	}
	return ctx.area.Read(file)
}

// Close is the transparent-mode close: it drops the file reference so the
// DV may evict it (SIMFS_Release shares the implementation). The daemon
// refuses a release of a file this client does not hold (bad_request).
func (ctx *Context) Close(file string) error {
	ctx.dropNotice(file)
	_, err := ctx.fileCall(netproto.OpRelease, file)
	return err
}

// dropNotice forgets the file's notice: a client that releases a file
// without waiting for it keeps nothing for it. The notice itself still
// arrives, and ends its request.
func (ctx *Context) dropNotice(file string) {
	ctx.c.takeNotice(netproto.FileBody{Context: ctx.name, File: file})
}

// Release drops a file reference (SIMFS_Release).
func (ctx *Context) Release(file string) error { return ctx.Close(file) }

// EstWait asks the DV for the estimated availability delay of a file.
func (ctx *Context) EstWait(file string) (time.Duration, error) {
	resp, err := ctx.fileCall(netproto.OpEstWait, file)
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.EstWaitNs), nil
}

// Bitrep checks whether a file's current content matches the originally
// produced one (SIMFS_Bitrep). flag is true for a bitwise match.
func (ctx *Context) Bitrep(file string) (bool, error) {
	resp, err := ctx.fileCall(netproto.OpBitrep, file)
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// RegisterChecksum stores a file's original checksum (used by the
// checksum command-line utility at initial-simulation time).
func (ctx *Context) RegisterChecksum(file string, sum uint64) error {
	_, err := ctx.c.call(netproto.OpRegSum, netproto.ChecksumBody{Context: ctx.name, File: file, Sum: sum})
	return err
}

// Prefetch sends a guided-prefetching hint: the named files will be
// accessed soon, so SimFS should start re-simulating the missing ones
// now. It neither blocks nor takes references; it returns the number of
// re-simulations launched.
func (ctx *Context) Prefetch(files ...string) (int, error) {
	resp, err := ctx.c.call(netproto.OpPrefetch, netproto.FilesBody{Context: ctx.name, Files: files})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Stats fetches the context's DV counters.
func (ctx *Context) Stats() (metrics.Report, error) {
	resp, err := ctx.c.call(netproto.OpStats, netproto.CtxBody{Context: ctx.name})
	if err != nil {
		return metrics.Report{}, err
	}
	if resp.Stats == nil {
		return metrics.Report{}, &Error{Op: netproto.OpStats, Msg: "daemon sent no stats"}
	}
	return *resp.Stats, nil
}

// Rescan asks the daemon to resynchronize the context's cache with its
// storage area (recovery utility).
func (ctx *Context) Rescan() (int, error) {
	resp, err := ctx.c.call(netproto.OpRescan, netproto.CtxBody{Context: ctx.name})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}
