// Package simfs is a Go implementation of SimFS, the simulation-data
// virtualizing file system interface of Di Girolamo, Schmid, Schulthess
// and Hoefler (IPDPS 2019). SimFS exposes a virtualized view of a
// simulation's output: instead of storing every output step, it keeps
// restart checkpoints plus a bounded cache of output files, and
// re-simulates missing data on demand — trading storage for computation.
//
// The Data Virtualizer is sharded per simulation context: every context
// owns its own lock, storage area, cache policy instance, prefetch
// agents and simulation table, so concurrent analyses of different
// contexts never serialize on a shared mutex (pipeline virtualization
// coordinates across shards with a fixed downstream→upstream lock
// order). File readiness is announced through a publish/subscribe
// notification hub: waits, acquires and the Watch API subscribe to
// (context, step) topics and simulator progress is published without
// holding shard locks. Per-shard lock-contention counters travel with
// the usual statistics.
//
// Clients and daemon speak a versioned wire protocol: every connection
// opens with a hello handshake (version + capability negotiation), every
// request is a typed envelope, and failures carry machine-readable error
// codes (ErrCodeOf) instead of free-text-only messages. The daemon also
// serves a control plane — the Admin client reconfigures the
// re-simulation scheduler, swaps cache replacement policies (rebuilt
// live from the resident set), registers/deregisters simulation
// contexts and drains/resumes them, all without a restart; cmd/simfs-ctl
// is its command-line front-end. Cancellation and deadlines plumb
// through context.Context (DialContext, AcquireCtx, Req.WaitCtx).
//
// The package re-exports the system's public surface:
//
//   - Context / Grid describe a simulation configuration (Δd, Δr,
//     timeline, sizes, performance model, prefetching limits).
//   - NewDaemon builds a Data Virtualizer daemon: the sharded
//     Virtualizer state machine, per-context disk storage areas, an
//     in-process simulator launcher, and a TCP front-end for DVLib
//     clients.
//   - Dial / DialContext / Client / AnalysisContext are the DVLib
//     client library: transparent open/read/close plus the SIMFS_* API
//     (Acquire, AcquireNB, Wait, Test, Waitsome, Testsome, Release,
//     Bitrep) and the notification-only Watch subscription. Sessions
//     speak the binary wire codec after a JSON hello;
//     OpenAsync/ReleaseAsync pipeline batched requests.
//   - Client.Admin is the control-plane client (scheduler, cache
//     policies, context lifecycle).
//   - NCOpen / H5Fopen / AdiosOpen are the Table-I I/O-library bindings.
//   - CosmoScaling / CosmoCost / Flash / CacheEval are the paper's
//     published experiment configurations.
//
// See the examples directory for runnable end-to-end scenarios and
// DESIGN.md / EXPERIMENTS.md for the reproduction details.
package simfs

import (
	"context"

	"simfs/internal/cache"
	"simfs/internal/core"
	"simfs/internal/dvlib"
	"simfs/internal/ioshim"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/sched"
	"simfs/internal/server"
	"simfs/internal/simulator"
)

// Context is a simulation context: a simulator plus one configuration
// (paper Sec. II-A). Fill in the Grid, sizes and performance model, then
// register it with a daemon.
type Context = model.Context

// Grid is the temporal discretization of a simulation configuration:
// output interval Δd, restart interval Δr and total timesteps.
type Grid = model.Grid

// Daemon is a fully wired SimFS instance: Virtualizer, storage areas,
// in-process simulator launcher and TCP front-end.
type Daemon = server.Stack

// NewDaemon builds a daemon rooted at baseDir (one storage-area directory
// per context). timeScale divides all simulated durations — 1000 turns
// the published COSMO 13 s restart latency into 13 ms, convenient for
// local experimentation. policy selects the cache replacement scheme:
// LRU, LIRS, ARC, BCL or DCL (the paper's default).
func NewDaemon(baseDir string, timeScale int, policy string, ctxs ...*Context) (*Daemon, error) {
	return server.NewStack(baseDir, timeScale, policy, ctxs...)
}

// SchedConfig selects the re-simulation scheduling policy of a daemon:
// coalescing of overlapping launch requests, priority-ordered queueing
// (demand > guided prefetch > agent prefetch), a global node budget
// shared by all contexts, demand-over-prefetch preemption and per-client
// deficit-round-robin fairness. The zero value reproduces the paper's
// inline rules exactly.
type SchedConfig = sched.Config

// PreemptPolicy turns demand-over-prefetch preemption on: off (the
// zero value), or youngest — a node-blocked demand miss kills the most
// recently launched agent prefetch nobody waits for, and the victim's
// interval is requeued.
type PreemptPolicy = sched.PreemptPolicy

// ParsePreemptPolicy maps a flag/wire name ("off", "youngest") to a
// PreemptPolicy.
func ParsePreemptPolicy(name string) (PreemptPolicy, error) {
	return sched.ParsePreemptPolicy(name)
}

// NewScheduledDaemon is NewDaemon with an explicit scheduling policy.
func NewScheduledDaemon(baseDir string, timeScale int, policy string, cfg SchedConfig, ctxs ...*Context) (*Daemon, error) {
	return server.NewScheduledStack(baseDir, timeScale, policy, cfg, ctxs...)
}

// SchedInfo mirrors the daemon's live scheduler configuration on the
// wire (Admin.SchedConfig / Admin.UpdateSchedConfig results).
type SchedInfo = dvlib.SchedConfig

// SchedUpdate is a partial scheduler reconfiguration for
// Admin.UpdateSchedConfig: nil fields keep the daemon's current value.
type SchedUpdate = dvlib.SchedUpdate

// Client is a DVLib connection to the daemon.
type Client = dvlib.Client

// AnalysisContext is an open simulation context on a client (the handle
// SIMFS_Init returns).
type AnalysisContext = dvlib.Context

// Status mirrors SIMFS_Status: error state and estimated waiting time.
type Status = dvlib.Status

// Req is a non-blocking acquire handle (SIMFS_Req).
type Req = dvlib.Req

// Watch is a notification-only subscription to file availability,
// served by the daemon's notification hub.
type Watch = dvlib.Watch

// WatchEvent is one notification from a Watch.
type WatchEvent = dvlib.WatchEvent

// Admin is the control-plane client of a daemon connection
// (Client.Admin): live scheduler reconfiguration, cache-policy swaps,
// context registration/deregistration and drain/resume.
type Admin = dvlib.Admin

// PeerInfo is one federation link as reported by Admin.Peers: a
// router's ring member and whether the session's link to it is up.
type PeerInfo = netproto.PeerInfo

// OpLatency is one per-op service-time summary in a Stats frame
// (count, p50, p99 in nanoseconds).
type OpLatency = metrics.OpLatency

// Error is a structured daemon-reported failure carrying the
// machine-readable error code alongside the message.
type Error = dvlib.Error

// ErrCode classifies daemon failures on the wire (CodeNoSuchContext,
// CodeBusy, CodeVersion, …).
type ErrCode = netproto.ErrCode

// Structured error codes a daemon response may carry.
const (
	CodeVersion       = netproto.CodeVersion
	CodeNoSuchContext = netproto.CodeNoSuchContext
	CodeBadRequest    = netproto.CodeBadRequest
	CodeUnsupported   = netproto.CodeUnsupported
	CodeBusy          = netproto.CodeBusy
	CodeNotProduced   = netproto.CodeNotProduced
	CodeFailed        = netproto.CodeFailed
	CodeDraining      = netproto.CodeDraining
)

// ErrCodeOf extracts the structured code from an error chain ("" when
// the error did not come from the daemon).
func ErrCodeOf(err error) ErrCode { return dvlib.ErrCodeOf(err) }

// DialOption customizes Dial behavior (e.g. WithReconnect).
type DialOption = dvlib.DialOption

// ReconnectConfig tunes client auto-reconnect: jittered exponential
// backoff between redial attempts and the total budget before the
// client gives up for good. The zero value uses sane defaults.
type ReconnectConfig = dvlib.ReconnectConfig

// WithReconnect makes the client survive connection loss: it redials
// with backoff, re-runs the handshake, re-opens every held file
// reference, re-subscribes active watches, and transparently replays
// idempotent in-flight requests. Non-idempotent
// requests in flight at the reset (release, acquire, control-plane ops)
// fail with ErrReconnecting instead — the client cannot know whether
// they landed, so the caller decides.
func WithReconnect(cfg ReconnectConfig) DialOption { return dvlib.WithReconnect(cfg) }

// ErrReconnecting marks a non-idempotent request that was in flight
// when the connection reset. The client's state has been resynced with
// the daemon; re-issue the request if it is still wanted.
var ErrReconnecting = dvlib.ErrReconnecting

// ErrNotHeld marks a release of a file the client does not hold — the
// reconnect-mode guard against double releases silently corrupting
// daemon-side reference counts.
var ErrNotHeld = dvlib.ErrNotHeld

// RetryPolicy configures the daemon's re-simulation failure ledger:
// failed re-simulations retry with jittered exponential backoff, and an
// interval failing persistently is quarantined by a circuit breaker
// (demand opens fail fast with structured responses until the cooldown
// elapses or an operator resets it). The zero value disables the ledger
// — failures fail immediately, the pre-ledger behavior. Install it with
// Daemon.V.SetRetryPolicy.
type RetryPolicy = core.RetryPolicy

// QuarantineError is the structured failure the daemon reports for an
// interval held by the re-simulation circuit breaker, carrying the
// attempt count and the remaining cooldown.
type QuarantineError = core.QuarantineError

// OpenCall is a pipelined AnalysisContext.OpenAsync in flight.
type OpenCall = dvlib.OpenCall

// ReleaseCall is a pipelined AnalysisContext.ReleaseAsync in flight.
type ReleaseCall = dvlib.ReleaseCall

// Dial connects an analysis application to the daemon. clientName
// identifies the application: the DV associates its prefetch agent and
// reference counts with it.
func Dial(addr, clientName string, opts ...DialOption) (*Client, error) {
	return dvlib.Dial(addr, clientName, opts...)
}

// DialContext is Dial honoring a context for the TCP connect and the
// protocol handshake.
func DialContext(ctx context.Context, addr, clientName string, opts ...DialOption) (*Client, error) {
	return dvlib.DialContext(ctx, addr, clientName, opts...)
}

// NCFile is a netCDF-style file handle whose I/O is interposed onto the
// DV (Table I).
type NCFile = ioshim.NCFile

// H5File is an HDF5-style file handle (Table I).
type H5File = ioshim.H5File

// AdiosFile is an ADIOS-style read handle with deferred reads (Table I).
type AdiosFile = ioshim.AdiosFile

// NCOpen corresponds to nc_open: non-blocking open through the DV.
func NCOpen(ctx *AnalysisContext, path string) (*NCFile, error) { return ioshim.NCOpen(ctx, path) }

// H5Fopen corresponds to H5Fopen.
func H5Fopen(ctx *AnalysisContext, path string) (*H5File, error) { return ioshim.H5Fopen(ctx, path) }

// AdiosOpen corresponds to adios_open in read mode.
func AdiosOpen(ctx *AnalysisContext, path string) (*AdiosFile, error) {
	return ioshim.AdiosOpen(ctx, path)
}

// MeanVar computes mean and variance of a field — the analysis kernel of
// the paper's evaluation.
func MeanVar(xs []float64) (mean, variance float64) { return ioshim.MeanVar(xs) }

// Published experiment configurations (paper Secs. V-A and VI).

// CosmoScaling is the COSMO strong-scaling configuration (Fig. 16).
func CosmoScaling() *Context { return simulator.CosmoScaling() }

// CosmoCost is the COSMO cost-model calibration (Sec. V-A, 50 TiB).
func CosmoCost() *Context { return simulator.CosmoCost() }

// Flash is the FLASH Sedov blast-wave configuration (Fig. 18).
func Flash() *Context { return simulator.Flash() }

// CacheEval is the replacement-scheme evaluation configuration (Fig. 5).
func CacheEval() *Context { return simulator.CacheEval() }

// Policies lists the available cache replacement schemes.
func Policies() []string { return cache.PolicyNames() }
