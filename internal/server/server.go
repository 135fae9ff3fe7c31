// Package server implements the DV daemon (paper Sec. III): a TCP server
// exposing the Virtualizer to DVLib clients over the netproto wire
// protocol. Each connection serves one analysis application; acquires
// and subscriptions are answered asynchronously over the same
// connection when re-simulations produce the requested files.
//
// Framing, reply batching and the handshake (version and capability
// negotiation plus the client's name; any other first frame is refused
// with a structured CodeVersion error) belong to netproto.Conn. After
// the handshake every frame is a typed envelope, served through the
// handler table keyed by netproto's op table; requests the daemon
// cannot decode are answered with structured errors, and the connection
// is dropped only when the stream itself can no longer be trusted
// (oversize or truncated frames).
//
// Besides the data-plane ops the daemon serves a control plane
// (capability "admin"): live scheduler reconfiguration, cache-policy
// swaps, context registration/deregistration and per-context
// drain/resume — all without a restart.
//
// Readiness rides the Virtualizer's notify hub: a missed open and the one
// stream handler (watch.go) wait there as callbacks, whose frames one
// pusher per session sends (notice.go).
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"simfs/internal/core"
	"simfs/internal/metrics"
	"simfs/internal/netproto"
	"simfs/internal/notify"
)

// Server is the DV daemon front-end.
type Server struct {
	v *core.Virtualizer
	// listener supplies Listen, Addr and the accept loop under Serve.
	listener

	// stack provisions contexts for ctx-register: storage areas and the
	// initial simulation. NewScheduledStack sets it; a bare Server refuses
	// ctx-register with CodeUnsupported.
	stack *Stack

	// WrapConn, when set before Serve, wraps every accepted connection —
	// the seam fault injectors (faults.ConnPlan) and instrumentation hook
	// into without touching the accept loop.
	WrapConn func(net.Conn) net.Conn

	// Logf, when set before Serve, receives the daemon's log lines:
	// session errors, and one line per control-plane change (sched-set,
	// cache-policy-set, quarantine-reset, ctx-register/deregister)
	// naming the client that made it. New sets it from its logf
	// argument; it must not be nil.
	Logf func(format string, args ...any)

	// mu guards sessions: the live sessions by connection, for the
	// graceful drain in Close.
	mu       sync.Mutex
	sessions map[*netproto.Conn]*session
	// lat tracks per-op dispatch service time (the synchronous half of a
	// request — async completions like a subscribe's ready frame are not
	// attributed here), surfaced through the stats frame.
	lat *metrics.LatencySet
}

type listener = netproto.Listener

// New wraps a Virtualizer. logf may be nil to silence logging.
func New(v *core.Virtualizer, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var timed []string
	for _, spec := range netproto.Ops {
		if spec.Timed {
			timed = append(timed, spec.Name)
		}
	}
	return &Server{v: v, sessions: map[*netproto.Conn]*session{}, Logf: logf,
		lat: metrics.NewLatencySet(timed...)}
}

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error { return s.listener.Serve(s.WrapConn, s.handle) }

// Close stops accepting and shuts down gracefully: every live session's
// pending acquires and subscriptions are failed with a structured
// draining frame, buffered replies are flushed, and only then are the
// connections closed. A client that receives draining knows its request
// was not lost in flight — it can reconnect and retry.
func (s *Server) Close() {
	s.listener.Close(func(c *netproto.Conn) {
		s.mu.Lock()
		sess := s.sessions[c]
		s.mu.Unlock()
		if sess != nil {
			sess.drain()
		}
	})
}

// session is one client connection: the daemon-side state that rides
// on a netproto.Conn, which owns the framing and the write-coalescing
// buffer.
type session struct {
	c   *netproto.Conn
	srv *Server
	// client is the client name declared in the hello handshake,
	// remembered so references can be cleaned up on disconnect.
	client string
	// held counts the references this session holds, per file: release
	// drops only these, and disconnect cleanup all of them.
	held map[heldFile]int
	// pusher holds the missed opens owed their notice and the readiness
	// streams by request ID.
	pusher pusher
}

// heldFile names a file of one context in a session's reference ledger.
type heldFile struct{ ctx, file string }

// reply encodes the response into the connection's write buffer without
// flushing. The read loop flushes before its next blocking read, so a
// pipelined batch of requests is answered with one write syscall.
func (sess *session) reply(resp netproto.Response) {
	sess.check("encode", sess.c.EnqueueResponse(&resp))
}

// flush pushes buffered response frames to the connection.
func (sess *session) flush() { sess.check("write", sess.c.Flush()) }

// check drops the session when a response could not be encoded or
// written: its request would otherwise wait forever.
func (sess *session) check(what string, err error) {
	if err != nil {
		sess.srv.Logf("server: %s for %s: %v", what, sess.c.RemoteAddr(), err)
		sess.c.Close()
	}
}

// answer replies to request id with resp — or, when the handler failed,
// with err's structured rendering.
func (sess *session) answer(id uint64, resp netproto.Response, err error) {
	if err != nil {
		resp = failure(err)
	}
	resp.ID = id
	sess.reply(resp)
}

// failure renders a handler error as a response: its wire code and, for
// a quarantined interval, the retry details.
func failure(err error) netproto.Response {
	resp := netproto.Response{Code: codeOf(err), Err: err.Error()}
	var qerr *core.QuarantineError
	if errors.As(err, &qerr) {
		resp.Attempts = qerr.Attempts
		resp.RetryAfterNs = int64(qerr.RetryAfter)
	}
	return resp
}

// codeOf maps a handler error to its structured wire code. Client
// mistakes are the wrapped sentinels (ErrInvalid and friends);
// everything unclassified — filesystem faults, invariant violations,
// anything a handler did not anticipate — is the daemon's problem and
// classifies as internal, so a client dispatching on the code never
// mistakes a daemon bug for bad input.
//
// The errcode analyzer checks this table: every //simfs:errcode
// sentinel registered in the imported packages must appear in a case.
//
//simfs:errcode-table
func codeOf(err error) netproto.ErrCode {
	var qerr *core.QuarantineError
	switch {
	case errors.As(err, &qerr):
		// Quarantined intervals fail fast; answer fills the structured
		// Attempts/RetryAfterNs fields from the error.
		return netproto.CodeFailed
	case errors.Is(err, core.ErrUnknownContext):
		return netproto.CodeNoSuchContext
	case errors.Is(err, core.ErrDraining), errors.Is(err, core.ErrBusy):
		return netproto.CodeBusy
	case errors.Is(err, core.ErrNotProduced):
		return netproto.CodeNotProduced
	case errors.Is(err, core.ErrInvalid):
		return netproto.CodeBadRequest
	default:
		return netproto.CodeInternal
	}
}

// daemonCaps is what the daemon advertises in every hello reply (plus
// CapBinary, which Accept adds).
var daemonCaps = []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapPreempt}

func (s *Server) handle(c *netproto.Conn) {
	hello, err := c.Accept(daemonCaps, "daemon")
	if err != nil {
		if err != io.EOF {
			s.Logf("server: handshake with %s: %v", c.RemoteAddr(), err)
		}
		return
	}
	sess := &session{c: c, srv: s, client: hello.Client, held: map[heldFile]int{}}
	sess.pusher = pusher{notices: notify.NewOwner(sess.resolved),
		streams: notify.NewStreamOwner(sess.streamEvent), answered: map[uint64]struct{}{},
		early: map[uint64]netproto.Response{}, watches: map[uint64]*fileWatch{}}
	s.mu.Lock()
	s.sessions[c] = sess
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, c)
		s.mu.Unlock()
		// Retire the session's waiters, then release references held by
		// the departed client.
		sess.leave()
		for f, n := range sess.held {
			for i := 0; i < n; i++ {
				if err := s.v.Release(sess.client, f.ctx, f.file); err != nil {
					break
				}
			}
		}
		// With the references gone, the client's speculative work can be
		// dismantled: queued prefetch jobs are de-queued and running
		// prefetch simulations nobody else waits for are killed.
		s.v.ClientDisconnected(sess.client)
	}()
	c.SetNames(s.v.Names)
	flush := sess.flush // bound once: a method value allocates
	// One envelope per session, not per frame: it is decoded into through
	// a pointer, which would cost a heap envelope each time round.
	var env netproto.Envelope
	for {
		if err := c.ReadRequest(&env, flush); err != nil {
			if err != io.EOF {
				s.Logf("server: read from %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		t0 := time.Now() //simfs:allow wallclock live daemon service-time stamps feed the latency histograms, not the simulation
		s.dispatch(sess, env)
		s.lat.Record(env.Op, time.Since(t0)) //simfs:allow wallclock live daemon service-time stamps feed the latency histograms, not the simulation
	}
}

// handler serves one request envelope: decode its body, act, answer.
type handler func(s *Server, sess *session, env netproto.Envelope)

// op adapts a typed handler that answers with exactly one response; the
// adapter owns the body decode, the error classification and the reply.
func op[B any](h func(*Server, *session, B) (netproto.Response, error)) handler {
	return func(s *Server, sess *session, env netproto.Envelope) {
		if b, ok := decodeBody[B](sess, env); ok {
			resp, err := h(s, sess, b)
			sess.answer(env.ID, resp, err)
		}
	}
}

// fileOp is op for the FileBody ops, the data plane's hot ones: they
// arrive binary (the connection refuses them as JSON), which leaves
// their body typed in the envelope, so it is taken from there and
// nothing is decoded.
func fileOp(h func(*Server, *session, netproto.FileBody) (netproto.Response, error)) handler {
	return func(s *Server, sess *session, env netproto.Envelope) {
		b, _ := env.File()
		resp, err := h(s, sess, b)
		sess.answer(env.ID, resp, err)
	}
}

// bare is op for bodyless requests.
func bare(h func(*Server, *session) (netproto.Response, error)) handler {
	return func(s *Server, sess *session, env netproto.Envelope) {
		resp, err := h(s, sess)
		sess.answer(env.ID, resp, err)
	}
}

// decodeBody unmarshals the typed body, answering a structured
// bad-request (with the op and request ID wrapped in) on failure.
func decodeBody[B any](sess *session, env netproto.Envelope) (b B, ok bool) {
	if err := env.Decode(&b); err != nil {
		sess.reply(netproto.Response{ID: env.ID, Code: netproto.CodeBadRequest, Err: err.Error()})
		return b, false
	}
	return b, true
}

// handlers is the daemon's half of the op table: one entry per
// netproto.Ops row the connection does not consume itself (the hello).
var handlers = map[string]handler{
	netproto.OpPing:            bare((*Server).ping),
	netproto.OpContexts:        bare((*Server).contexts),
	netproto.OpContextInfo:     op((*Server).contextInfo),
	netproto.OpOpen:            (*Server).open,
	netproto.OpRelease:         (*Server).release,
	netproto.OpAcquire:         (*Server).watch,
	netproto.OpEstWait:         fileOp((*Server).estWait),
	netproto.OpBitrep:          fileOp((*Server).bitrep),
	netproto.OpRegSum:          op((*Server).regSum),
	netproto.OpStats:           op((*Server).stats),
	netproto.OpPrefetch:        op((*Server).prefetch),
	netproto.OpRescan:          op((*Server).rescan),
	netproto.OpSubscribe:       (*Server).watch,
	netproto.OpPeers:           bare((*Server).peers),
	netproto.OpUnsubscribe:     op((*Server).unsubscribe),
	netproto.OpSchedGet:        bare((*Server).schedGet),
	netproto.OpSchedSet:        op((*Server).schedSet),
	netproto.OpCachePolicySet:  op((*Server).cachePolicySet),
	netproto.OpDrain:           op((*Server).drain),
	netproto.OpResume:          op((*Server).resume),
	netproto.OpQuarantineReset: op((*Server).quarantineReset),
	netproto.OpCtxRegister:     op((*Server).ctxRegister),
	netproto.OpCtxDeregister:   op((*Server).ctxDeregister),
}

// dispatch serves one envelope.
func (s *Server) dispatch(sess *session, env netproto.Envelope) {
	if h := handlers[env.Op]; h != nil {
		h(s, sess, env)
		return
	}
	sess.reply(netproto.Response{ID: env.ID, Code: netproto.CodeUnsupported,
		Err: fmt.Sprintf("unknown op %q", env.Op)})
}

// acked is the plain success response.
var acked = netproto.Response{OK: true}

func (s *Server) ping(*session) (netproto.Response, error) { return acked, nil }

func (s *Server) contexts(*session) (netproto.Response, error) {
	return netproto.Response{OK: true, Names: s.v.ContextNames()}, nil
}

func (s *Server) contextInfo(_ *session, b netproto.CtxBody) (netproto.Response, error) {
	ctx, ok := s.v.Context(b.Context)
	if !ok {
		return netproto.Response{}, fmt.Errorf("%w %q", core.ErrUnknownContext, b.Context)
	}
	// A context deregistered since the lookup above reports the zero
	// policy and flag.
	r, _ := s.v.Report(b.Context)
	return netproto.Response{OK: true, Info: &netproto.ContextInfo{
		Name:        ctx.Name,
		StorageDir:  ctx.StorageDir,
		FilePrefix:  ctx.FilePrefix,
		FileSuffix:  ctx.FileSuffix,
		DeltaD:      ctx.Grid.DeltaD,
		DeltaR:      ctx.Grid.DeltaR,
		Timesteps:   ctx.Grid.Timesteps,
		OutputBytes: ctx.OutputBytes,
		Policy:      r.CachePolicy,
		Draining:    r.Draining,
	}}, nil
}

// open answers a hit, or a refused open, once and terminally. A miss is
// answered at once without Done, and again by its notice when the
// re-simulation decides the file's fate (notice.go).
func (s *Server) open(sess *session, env netproto.Envelope) {
	b, _ := env.File() // binary-only op: see fileOp
	id := env.ID
	res, err := s.v.OpenAwait(sess.client, b.Context, b.File, sess.pusher.notices, id, env.Step())
	if err != nil {
		resp := failure(err)
		resp.ID, resp.Done = id, true
		sess.reply(resp)
		return
	}
	sess.trackRef(b.Context, b.File, +1)
	sess.reply(netproto.Response{ID: id, OK: true, Available: res.Available, Done: res.Available,
		EstWaitNs: int64(res.EstWait)})
	switch {
	case res.Awaited:
		sess.openMissed(id)
	case !res.Available:
		// Nothing promises the file: its notice is due at once.
		sess.reply(netproto.Response{ID: id, Code: netproto.CodeNotProduced,
			Err: fmt.Sprintf("%q is neither on disk nor promised", b.File), Done: true})
	}
}

// release drops one of the session's own references: core counts a
// step's references, not whose, so a file the session does not hold is
// refused, with core's answer when nobody holds it.
func (s *Server) release(sess *session, env netproto.Envelope) {
	b, _ := env.File() // binary-only op: see fileOp
	var err error
	if sess.held[heldFile{b.Context, b.File}] > 0 {
		if err = s.v.Release(sess.client, b.Context, b.File, env.Step()); err == nil {
			sess.trackRef(b.Context, b.File, -1)
		}
	} else if err = s.v.Referenced(b.Context, b.File); err == nil {
		err = fmt.Errorf("%w: release of %q not held by this session", core.ErrInvalid, b.File)
	}
	sess.answer(env.ID, acked, err)
}

func (s *Server) estWait(_ *session, b netproto.FileBody) (netproto.Response, error) {
	w, err := s.v.EstWait(b.Context, b.File)
	return netproto.Response{OK: true, EstWaitNs: int64(w)}, err
}

func (s *Server) bitrep(_ *session, b netproto.FileBody) (netproto.Response, error) {
	content, err := s.readStorage(b.Context, b.File)
	if err != nil {
		return netproto.Response{}, err
	}
	same, err := s.v.Bitrep(b.Context, b.File, content)
	return netproto.Response{OK: true, Flag: same}, err
}

func (s *Server) regSum(_ *session, b netproto.ChecksumBody) (netproto.Response, error) {
	return acked, s.v.RegisterChecksum(b.Context, b.File, b.Sum)
}

func (s *Server) stats(_ *session, b netproto.CtxBody) (netproto.Response, error) {
	r, err := s.v.Report(b.Context)
	if err != nil {
		return netproto.Response{}, err
	}
	r.Ops = s.lat.Summaries()
	return netproto.Response{OK: true, Stats: &r}, nil
}

func (s *Server) prefetch(sess *session, b netproto.FilesBody) (netproto.Response, error) {
	if len(b.Files) == 0 {
		return netproto.Response{}, fmt.Errorf("%w: prefetch requires at least one file", core.ErrInvalid)
	}
	n, err := s.v.GuidedPrefetch(sess.client, b.Context, b.Files)
	return netproto.Response{OK: true, Count: n}, err
}

func (s *Server) rescan(_ *session, b netproto.CtxBody) (netproto.Response, error) {
	n, err := s.v.RescanStorageArea(b.Context)
	return netproto.Response{OK: true, Count: n}, err
}

// peers answers that a daemon has no federation links: only a router
// has, its ring members.
func (s *Server) peers(*session) (netproto.Response, error) { return acked, nil }

func (s *Server) unsubscribe(sess *session, b netproto.UnsubscribeBody) (netproto.Response, error) {
	sess.endWatch(b.SubID)
	return acked, nil
}

func (s *Server) schedGet(*session) (netproto.Response, error) {
	cfg := s.v.SchedConfig()
	return netproto.Response{OK: true, Sched: &cfg}, nil
}

// schedSet applies a partial reconfiguration. sched.Patch owns the
// validation and the merge — atomic under the scheduler's mutex, so
// concurrent sched-sets compose and a refused one changes nothing.
func (s *Server) schedSet(sess *session, b netproto.SchedSetBody) (netproto.Response, error) {
	cfg, err := s.v.UpdateSchedConfig(b)
	if err != nil {
		return netproto.Response{}, err
	}
	s.Logf("server: scheduler reconfigured by %s: %s, now %+v", sess.client, b, cfg)
	return netproto.Response{OK: true, Sched: &cfg}, nil
}

func (s *Server) cachePolicySet(sess *session, b netproto.CachePolicyBody) (netproto.Response, error) {
	if err := s.v.SetCachePolicy(b.Context, b.Policy); err != nil {
		return netproto.Response{}, err
	}
	s.Logf("server: context %s cache policy swapped to %s by %s", b.Context, b.Policy, sess.client)
	return acked, nil
}

func (s *Server) drain(_ *session, b netproto.CtxBody) (netproto.Response, error) {
	return acked, s.v.Drain(b.Context)
}

func (s *Server) resume(_ *session, b netproto.CtxBody) (netproto.Response, error) {
	return acked, s.v.Resume(b.Context)
}

func (s *Server) quarantineReset(sess *session, b netproto.CtxBody) (netproto.Response, error) {
	n, err := s.v.ResetQuarantine(b.Context)
	if err != nil {
		return netproto.Response{}, err
	}
	if b.Context == "" {
		s.Logf("server: quarantine reset on all contexts by %s (%d released)", sess.client, n)
	} else {
		s.Logf("server: quarantine reset on context %s by %s (%d released)", b.Context, sess.client, n)
	}
	return netproto.Response{OK: true, Count: n}, nil
}

func (s *Server) ctxRegister(sess *session, b netproto.CtxRegisterBody) (netproto.Response, error) {
	if b.Context == nil {
		return netproto.Response{}, fmt.Errorf("%w: ctx-register requires a context definition", core.ErrInvalid)
	}
	if s.stack == nil {
		return netproto.Response{Code: netproto.CodeUnsupported,
			Err: "this daemon has no context registrar (storage provisioning unavailable)"}, nil
	}
	if err := s.stack.RegisterContext(b.Context, b.Policy, b.InitialSim); err != nil {
		return netproto.Response{}, err
	}
	s.Logf("server: context %s registered by %s (policy %s)", b.Context.Name, sess.client, b.Policy)
	return acked, nil
}

func (s *Server) ctxDeregister(sess *session, b netproto.CtxBody) (netproto.Response, error) {
	if err := s.v.RemoveContext(b.Context); err != nil {
		return netproto.Response{}, err
	}
	s.Logf("server: context %s deregistered by %s", b.Context, sess.client)
	return acked, nil
}

// readStorage reads a file's content from the context's storage area.
func (s *Server) readStorage(ctxName, file string) ([]byte, error) {
	fs, err := s.v.StorageArea(ctxName)
	if err != nil {
		return nil, err
	}
	if fs == nil {
		// A registered context without a storage area is a daemon-side
		// misconfiguration, not a client mistake: internal is the right
		// classification, so no sentinel is wrapped.
		return nil, fmt.Errorf("context %q has no storage area", ctxName) //simfs:allow errcode daemon-side invariant breach classifies as internal by design
	}
	return fs.Read(file)
}

func (sess *session) trackRef(ctx, file string, delta int) {
	f := heldFile{ctx, file}
	if n := sess.held[f] + delta; n > 0 {
		sess.held[f] = n
	} else {
		delete(sess.held, f)
	}
}
