// Package netproto defines the wire protocol between DVLib clients and the
// DV daemon (paper Sec. III: "Dashed arrows are control messages
// (TCP/IP)"): length-prefixed frames over a persistent TCP connection.
//
// # Protocol version 4
//
// A connection starts with a hello handshake, in JSON: the client sends
// an OpHello envelope carrying its protocol version, client name and
// requested capability flags, CapBinary among them; the daemon answers
// with ProtoVersion and its capabilities. A pre-versioned (v1) frame, a
// hello below version 4 or a hello without CapBinary is refused with a
// JSON CodeVersion error. Every subsequent client frame is an Envelope —
// a fixed header (client-assigned request ID plus operation name) and a
// typed per-op body. Responses echo the ID, which lets the daemon
// deliver asynchronous notifications (file-ready events for
// open/acquire/subscribe) over the same connection.
//
// An open is answered once or twice on its own ID. A hit, and an open
// refused, get one terminal answer (Done, or an error). A miss gets the
// non-terminal {OK, Available:false, EstWaitNs} at once, and later one
// terminal notice: {OK, Ready, Done} when the re-simulation produced
// the file, or a failed/not_produced/draining error that also says
// Done. The notice is what a transparent-mode read waits on, so a wait
// after a missed open costs no request of its own. Version 4 introduced
// the notice; a version-3 peer, which would not expect it, is refused.
//
// After the hello every frame speaks the Binary codec. It encodes the
// hot ops (open/release/acquire/estwait/bitrep/subscribe/prefetch/
// unsubscribe/ping) and the common response shape without any JSON hop;
// cold-path ops (admin, control plane) and rich responses (listings,
// stats, scheduler info) stay JSON inside the binary frames — the
// decoder discriminates on the first payload byte, which is '{' for
// JSON and never '{' for binary bodies. A hot op sent as JSON is refused
// with CodeFrame.
//
// Errors are structured: a failing Response carries a machine-readable
// Code alongside the human-readable Err text, so clients dispatch on
// CodeNoSuchContext or CodeBusy instead of string-matching error
// messages.
//
// # One connection, one op table
//
// The package also owns the connection both ends speak the protocol
// through. Conn is a framed transport generation: the write buffer
// flushed with one conn.Write, flush-when-idle reads, and both halves
// of the handshake (Conn.Accept, Dial). Pending is the requesting
// side's in-flight table: request IDs, reply demux, streams held to
// their terminal frame, synthesized terminal frames on loss, and the
// federation router's relays, whose binary answers cross undecoded. Listener
// is the accept loop. Ops is the op table — wire name, binary opcode,
// body kind, stream/idempotent/timed — that the codec, the daemon's
// handler table, the router and the client library all look ops up in.
package netproto

import (
	"encoding/json"
	"fmt"

	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/sched"
)

// ProtoVersion is the protocol version this build speaks, and the
// oldest it accepts: an older hello is refused with CodeVersion, a newer
// one is answered with ProtoVersion.
const ProtoVersion = 4

// MaxFrame bounds a single frame to keep a misbehaving peer from forcing
// unbounded allocations.
const MaxFrame = 1 << 20

// Operations understood by the daemon.
const (
	// OpHello is the mandatory first frame of a connection: version and
	// capability negotiation plus the client's name.
	OpHello = "hello"

	OpPing        = "ping"
	OpContexts    = "contexts" // list context names
	OpContextInfo = "ctxinfo"  // fetch one context's parameters
	OpOpen        = "open"     // non-blocking open (Table I: open); a miss is answered again when the file is ready
	OpRelease     = "release"  // drop a reference (Table I: close)
	OpAcquire     = "acquire"  // SIMFS_Acquire: multi-file subscription
	OpEstWait     = "estwait"  // estimated wait for a file
	OpBitrep      = "bitrep"   // SIMFS_Bitrep
	OpRegSum      = "regsum"   // register an original checksum
	OpStats       = "stats"    // context counters
	OpRescan      = "rescan"   // rescan the storage area
	OpPrefetch    = "prefetch" // guided prefetching hint

	// OpSubscribe registers a notification-only subscription: the daemon
	// sends one frame per file as it becomes ready (or fails), then a
	// final Done frame. Unlike acquire it takes no references; the
	// files must already be resident or promised (opened by someone).
	OpSubscribe = "subscribe"
	// OpUnsubscribe cancels an active subscription; SubID names the
	// subscribe request's ID.
	OpUnsubscribe = "unsubscribe"

	// Control-plane (admin) operations, gated by CapAdmin.

	// OpSchedGet reads the live re-simulation scheduler configuration.
	OpSchedGet = "sched-get"
	// OpSchedSet reconfigures the scheduler on the live daemon; unset
	// fields keep their current value. The change applies at the next
	// admission decision.
	OpSchedSet = "sched-set"
	// OpCachePolicySet swaps a context's cache replacement scheme live,
	// rebuilding the new policy from the resident set.
	OpCachePolicySet = "cache-policy-set"
	// OpCtxRegister adds a simulation context to the running daemon.
	OpCtxRegister = "ctx-register"
	// OpCtxDeregister removes a drained context from the daemon.
	OpCtxDeregister = "ctx-deregister"
	// OpDrain stops admitting new opens/prefetches for a context;
	// running work completes and releases still land.
	OpDrain = "drain"
	// OpResume lifts a drain.
	OpResume = "resume"
	// OpQuarantineReset clears the re-simulation quarantine ledger of a
	// context ("" = all contexts), re-enabling launches for intervals the
	// circuit breaker had opened.
	OpQuarantineReset = "quarantine-reset"
	// OpPeers lists the federation links of a router: its ring members.
	// A daemon has none and answers with an empty list.
	OpPeers = "peers"
)

// Capability flags advertised in the hello handshake.
const (
	// CapAdmin marks the control-plane operations (sched-*,
	// cache-policy-set, ctx-*, drain/resume).
	CapAdmin = "admin"
	// CapWatch marks the notification-only subscribe/unsubscribe pair.
	CapWatch = "watch"
	// CapPreempt marks the preemption/fairness scheduler knobs
	// (SchedSetBody.Preempt / DRRQuantum). Clients must not send
	// them to a daemon that does not advertise the capability: an older
	// daemon would silently drop the unknown JSON fields, acknowledging
	// a reconfiguration it never applied.
	CapPreempt = "preempt"
	// CapBinary marks the binary codec every frame after the (always
	// JSON) hello exchange speaks. Both sides must name it in the hello:
	// a peer that does not — one built to speak JSON frames — is
	// refused, not sent frames it cannot parse.
	CapBinary = "bin"
)

// ErrCode is a machine-readable error class. A failed Response carries
// one so clients dispatch on the code instead of matching error text.
type ErrCode string

const (
	// CodeVersion: protocol handshake failed (missing hello, a version
	// below ProtoVersion, or no CapBinary).
	CodeVersion ErrCode = "version_mismatch"
	// CodeNoSuchContext: the named simulation context is not registered.
	CodeNoSuchContext ErrCode = "no_such_context"
	// CodeBadRequest: the request was malformed (wrong body, bad file
	// name, out-of-range step).
	CodeBadRequest ErrCode = "bad_request"
	// CodeUnsupported: the operation is unknown or not offered by this
	// daemon (e.g. ctx-register without a registrar).
	CodeUnsupported ErrCode = "unsupported"
	// CodeBusy: the context is draining or still holds references /
	// running simulations; retry after the workload drains.
	CodeBusy ErrCode = "busy"
	// CodeNotProduced: the file is neither on disk nor promised by a
	// re-simulation; open or acquire it first.
	CodeNotProduced ErrCode = "not_produced"
	// CodeFailed: a re-simulation failed or was killed. When the failure
	// exhausted the retry budget and quarantined the interval, the
	// response also carries Attempts and RetryAfterNs.
	CodeFailed ErrCode = "failed"
	// CodeDraining: the daemon is shutting down; in-flight acquires and
	// subscriptions are released with this code instead of being dropped
	// mid-frame. Reconnect and retry against the replacement daemon.
	CodeDraining ErrCode = "draining"
	// CodeFrame: the peer sent an undecodable frame.
	CodeFrame ErrCode = "bad_frame"
	// CodeInternal: the daemon hit an unexpected internal error.
	CodeInternal ErrCode = "internal"
)

// Envelope is the fixed header of every client→daemon frame: a
// client-assigned request ID, the operation name, and the typed per-op
// body (absent for bodyless ops like ping).
//
// The body lives in one of three places. A FileBody — the body of
// open/release/estwait/bitrep, the data plane's hot ops — rides
// unboxed in the file slot, set by NewFileEnvelope and by the binary
// decoder, so nothing between the socket and the handler allocates for
// it. Every other typed body is kept as a value (val) and marshaled
// lazily at encode time, so the binary codec serializes it with no JSON
// hop; envelopes decoded from JSON frames carry the raw bytes (Body).
// Decode serves all three. When Body is set it wins — it is what
// actually crossed the wire.
type Envelope struct {
	ID   uint64          `json:"id"`
	Op   string          `json:"op"`
	Body json.RawMessage `json:"body,omitempty"`

	// val is the typed body of a locally built or binary-decoded
	// envelope, except a FileBody; nil for bodyless ops and JSON-decoded
	// frames.
	val any
	// file is the FileBody of a locally built or binary-decoded
	// envelope; hasFile tells it from an absent body; step is Step's,
	// row Row's plus one (0 too if no decoder or constructor built e).
	file    FileBody
	hasFile bool
	row     uint8
	step    int
}

// NewEnvelope wraps body into an envelope for op. A nil body yields a
// bodyless envelope. The body is kept as a typed value and serialized at
// encode time by the connection's codec; the error return is retained
// for call-site compatibility and is always nil (marshal failures
// surface from the encoder, wrapped with the op and ID). Callers that
// hold a FileBody use NewFileEnvelope, which spares boxing it.
func NewEnvelope(id uint64, op string, body any) (Envelope, error) {
	if fb, ok := body.(FileBody); ok {
		return NewFileEnvelope(id, op, fb), nil
	}
	return Envelope{ID: id, Op: op, val: body, row: rowByName[op]}, nil
}

// NewFileEnvelope is NewEnvelope for the FileBody ops.
func NewFileEnvelope(id uint64, op string, body FileBody) Envelope {
	return Envelope{ID: id, Op: op, file: body, hasFile: true, row: rowByName[op]}
}

// Row returns the envelope's row in Ops, which the decoders and the
// constructors look up once: -1 for an op the table lacks, or for an
// envelope none of them built.
func (e *Envelope) Row() int { return int(e.row) - 1 }

// File returns the envelope's FileBody when it carries one typed — a
// locally built or binary-decoded request of a FileBody op, which is
// every one a connection reads. ok is false for every other envelope,
// a FileBody request decoded by the JSON codec included: that one goes
// through Decode.
func (e *Envelope) File() (body FileBody, ok bool) {
	return e.file, e.hasFile && len(e.Body) == 0
}

// Step returns the step the reading connection's Names resolved the
// FileBody's file to at decode time, or 0 for none.
func (e *Envelope) Step() int { return e.step }

// Decode unmarshals the envelope's body into v, wrapping failures with
// the offending op and request ID. A missing body decodes only into
// nothing: ops with required bodies treat it as an error. Binary-decoded
// envelopes hand their typed body over without a JSON round-trip when v
// matches the wire type.
func (e *Envelope) Decode(v any) error {
	if len(e.Body) == 0 && (e.hasFile || e.val != nil) {
		var src any = e.val
		if e.hasFile {
			if dst, ok := v.(*FileBody); ok {
				*dst = e.file
				return nil
			}
			src = e.file
		}
		switch src := src.(type) {
		case FilesBody:
			if dst, ok := v.(*FilesBody); ok {
				*dst = src
				return nil
			}
		case UnsubscribeBody:
			if dst, ok := v.(*UnsubscribeBody); ok {
				*dst = src
				return nil
			}
		}
		// Mismatched or uncommon target type: fall back to a JSON
		// round-trip so local (non-wire) envelopes decode like remote
		// ones.
		raw, err := json.Marshal(src)
		if err != nil {
			return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("decode body: %w", err)}
		}
		if err := json.Unmarshal(raw, v); err != nil {
			return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("decode body: %w", err)}
		}
		return nil
	}
	if len(e.Body) == 0 {
		return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("missing request body")}
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return &FrameError{Op: e.Op, ID: e.ID, Recoverable: true, Err: fmt.Errorf("decode body: %w", err)}
	}
	return nil
}

// Typed per-op request bodies.

// HelloBody opens a connection: protocol version, client name (the DV
// associates prefetch agents and reference counts with it) and the
// capabilities the client intends to use.
type HelloBody struct {
	Version int      `json:"version"`
	Client  string   `json:"client,omitempty"`
	Caps    []string `json:"caps,omitempty"`
}

// HelloInfo is the daemon's half of the handshake, echoed in the
// Response.Proto field: the negotiated version and the daemon's
// capability flags.
type HelloInfo struct {
	Version int      `json:"version"`
	Caps    []string `json:"caps,omitempty"`
}

// FileBody addresses one file of one context (open, wait, release,
// estwait, bitrep). Exhaustive: the binary codec pair must carry
// every field, or clients silently lose data.
//
//simfs:exhaustive
type FileBody struct {
	Context string `json:"context"`
	File    string `json:"file"`
}

// FilesBody addresses several files of one context (acquire, prefetch,
// subscribe).
//
//simfs:exhaustive
type FilesBody struct {
	Context string   `json:"context"`
	Files   []string `json:"files"`
}

// CtxBody addresses a whole context (ctxinfo, stats, rescan, drain,
// resume, ctx-deregister).
type CtxBody struct {
	Context string `json:"context"`
}

// ChecksumBody registers an original-output checksum (regsum).
type ChecksumBody struct {
	Context string `json:"context"`
	File    string `json:"file"`
	Sum     uint64 `json:"sum"`
}

// UnsubscribeBody cancels the subscription opened by request SubID.
//
//simfs:exhaustive
type UnsubscribeBody struct {
	SubID uint64 `json:"sub_id"`
}

// SchedSetBody reconfigures the live scheduler: a sched.Patch, whose
// JSON tags are the wire format. Nil fields keep the current value, so
// a client can flip one knob without knowing the rest. The preempt
// policy and DRR quantum are gated by the CapPreempt capability: send
// them only to a daemon that advertised it. Fields a newer or older
// peer adds are ignored like any unknown JSON field.
type SchedSetBody = sched.Patch

// SchedInfo is the scheduler configuration on the wire (sched-get and
// sched-set responses): sched.Config itself, so a knob cannot land
// without being observable.
type SchedInfo = sched.Config

// CachePolicyBody swaps a context's replacement scheme.
type CachePolicyBody struct {
	Context string `json:"context"`
	Policy  string `json:"policy"`
}

// CtxRegisterBody adds a context at runtime. InitialSim asks the daemon
// to run the initial simulation (restart files + checksum registration)
// before the context serves clients.
type CtxRegisterBody struct {
	Context    *model.Context `json:"context"`
	Policy     string         `json:"policy"`
	InitialSim bool           `json:"initial_sim,omitempty"`
}

// ContextInfo carries the context parameters a client needs for
// transparent mode: where the storage area lives and how files are named.
type ContextInfo struct {
	Name        string `json:"name"`
	StorageDir  string `json:"storage_dir"`
	FilePrefix  string `json:"file_prefix"`
	FileSuffix  string `json:"file_suffix"`
	DeltaD      int    `json:"delta_d"`
	DeltaR      int    `json:"delta_r"`
	Timesteps   int    `json:"timesteps"`
	OutputBytes int64  `json:"output_bytes"`
	// Policy is the cache replacement scheme currently in effect.
	Policy string `json:"policy,omitempty"`
	// Draining reports whether the context currently refuses new work.
	Draining bool `json:"draining,omitempty"`
}

// PeerInfo describes one federation link in a peers response: a
// router's ring member (Role "member") and whether the asking session's
// link to it is up.
type PeerInfo struct {
	Addr      string `json:"addr"`
	Role      string `json:"role"`
	Connected bool   `json:"connected,omitempty"`
}

// Response is a daemon→client frame. For acquire subscriptions the daemon
// sends one frame per file as it becomes ready (File set, Done false) and
// a final frame with Done true; a missed open is answered without Done
// and then by its notice, with Done. A failing response carries both the
// machine-readable Code and the human-readable Err.
type Response struct {
	ID        uint64          `json:"id"`
	OK        bool            `json:"ok"`
	Code      ErrCode         `json:"code,omitempty"`
	Err       string          `json:"err,omitempty"`
	Available bool            `json:"available,omitempty"`
	Ready     bool            `json:"ready,omitempty"`
	Flag      bool            `json:"flag,omitempty"`
	Done      bool            `json:"done,omitempty"`
	File      string          `json:"file,omitempty"`
	EstWaitNs int64           `json:"est_wait_ns,omitempty"`
	Names     []string        `json:"names,omitempty"`
	Info      *ContextInfo    `json:"info,omitempty"`
	Stats     *metrics.Report `json:"stats,omitempty"`
	Count     int             `json:"count,omitempty"`
	// Proto carries the daemon's handshake half (hello responses only).
	Proto *HelloInfo `json:"proto,omitempty"`
	// Sched carries the scheduler configuration (sched-get / sched-set).
	Sched *SchedInfo `json:"sched,omitempty"`
	// Attempts and RetryAfterNs detail a CodeFailed response from a
	// quarantined interval: how many launches failed consecutively and
	// how long until the circuit breaker half-opens again.
	Attempts     int   `json:"attempts,omitempty"`
	RetryAfterNs int64 `json:"retry_after_ns,omitempty"`
	// Peers carries the federation link table (peers responses only).
	Peers []PeerInfo `json:"peers,omitempty"`
}

// Terminal reports whether the frame ends a streaming request: the
// explicit Done frame, or an error frame that is not per-file (per-file
// failures carry File and the stream continues). It is the one rule for
// every op: an open's answer is terminal unless it reports a miss,
// whose notice follows.
func (r *Response) Terminal() bool {
	return r.Done || (r.Code != "" && r.File == "")
}

// FrameError is a structured frame-layer failure. Op and ID identify the
// offending request when known (empty/zero for undecodable raw frames).
// Recoverable reports whether the stream is still aligned after the
// error: a complete frame with a bad JSON payload is recoverable (the
// reader consumed exactly the frame), while oversize or truncated frames
// are not — the connection must be dropped.
type FrameError struct {
	Op          string
	ID          uint64
	Recoverable bool
	Err         error
}

// Error implements the error interface.
func (e *FrameError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("netproto: op %q id %d: %v", e.Op, e.ID, e.Err)
	}
	return fmt.Sprintf("netproto: %v", e.Err)
}

// Unwrap exposes the cause.
func (e *FrameError) Unwrap() error { return e.Err }
