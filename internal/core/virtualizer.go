// Package core implements the Data Virtualizer (DV) of SimFS (paper
// Sec. III): the daemon-side state machine that exposes a virtualized view
// of simulation output. It tracks which output steps are on disk, restarts
// simulations to produce missing ones, maintains per-context storage areas
// with replacement policies and reference counting, drives the prefetch
// agents, and virtualizes simulation pipelines.
//
// The Virtualizer is time-source agnostic: it reads time through an
// injected Clock and starts/kills simulations through an injected
// Launcher, so the same state machine runs under the TCP daemon in wall
// time and under the discrete-event engine in virtual time.
//
// # Concurrency
//
// The Virtualizer is sharded per context: every registered context owns a
// shard with its own lock, cache, storage area, prefetch agents and
// simulation table, so analyses of different contexts never serialize on
// a shared mutex. Cross-shard work (pipeline virtualization, Sec. III-E)
// locks shards in downstream→upstream order; since a context's upstream
// must be registered before it, the upstream graph is acyclic and the
// ordering is deadlock-free. The small simMu directory that routes
// launcher events to shards is never held while acquiring a shard lock.
// The notify hub is the one record of who waits for a step: a site that
// decides a step's fate takes its waiters under the shard lock and
// delivers the event after all shard locks are released.
package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/cache"
	"simfs/internal/des"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/prefetch"
	"simfs/internal/sched"
	"simfs/internal/vfs"
)

// Launcher starts and kills re-simulations. *simulator.Launcher satisfies
// it on either clock. Core calls Launch under the shard lock and simMu and
// Kill under the shard lock, so neither may call back into Events: every
// event arrives later, from the launcher's clock.
type Launcher interface {
	// Launch starts a re-simulation of ctx producing output steps
	// [first, last] with the given parallelism; it returns a simulation
	// id. Progress arrives through the Virtualizer's Events methods.
	Launch(ctx *model.Context, first, last, parallelism int) int64
	// Kill aborts a running or queued simulation.
	Kill(simID int64)
}

// OpenResult is returned by Open: whether the file is immediately
// available and, if not, the estimated wait.
type OpenResult struct {
	Available bool
	EstWait   time.Duration
	// Awaited marks a miss whose waiter OpenAwait registered; a miss
	// without it has nothing producing the file.
	Awaited bool
}

// CtxStats is the shard's counter record, declared in internal/metrics.
// The alias stays for the benchmark module, which names it.
type CtxStats = metrics.CtxStats

type simState struct {
	id          int64
	ctxName     string
	first, last int
	parallelism int
	launchedAt  time.Duration
	startedAt   time.Duration
	started     bool
	produced    int // steps produced so far
	// prefetchFor is the client whose agent prefetched this simulation
	// ("" for demand re-simulations).
	prefetchFor string
	// class is the scheduling class the simulation was admitted under;
	// preemption only ever targets sched.Agent work. client is the
	// submitting client as the scheduler saw it — unlike prefetchFor it
	// survives for demand work too, so a requeue (pipeline node-budget
	// bounce, preemption) keeps charging the right per-client quota.
	class  sched.Class
	client string
	// preempted marks a simulation killed by the preemption path: its
	// SimEnded requeues the interval instead of failing its promises.
	// killing marks a cancellation kill already in flight (agent or
	// pollution reset, client disconnect) whose SimEnded has not landed
	// yet — such a sim must not be picked as a preemption victim, or
	// the requeue would resurrect the very work the reset dismantled.
	preempted bool
	killing   bool
	// pipeline wait state: number of upstream files still missing before
	// the simulation can actually be submitted.
	pendingUpstream int
	upstreamSteps   []int // upstream steps this sim holds references on
	launched        bool  // handed to the Launcher (vs pipeline-pending)
}

// shard is the per-context slice of the Virtualizer: one context's whole
// state behind one lock. All fields below mu are guarded by it.
type shard struct {
	mu metrics.ContendedMutex

	ctx *model.Context
	// cache is keyed by output step like steps below, whose reference
	// counts are its eviction guard (cache.PinnedBy): there is no pin
	// count to mirror.
	cache *cache.StepCache
	fs    vfs.FS // optional mirror of the storage area
	// evicted is insertStep's scratch for the victims of one insert,
	// reused so a step produced at capacity allocates nothing.
	evicted []int

	// draining refuses new opens and prefetches (control-plane drain /
	// deregistration); running work completes and releases still land.
	draining bool

	// steps is the per-step ledger; residency is the cache's.
	steps  model.Table[stepState]
	agents map[string]*prefetch.Agent

	// prefetched tracks steps produced by prefetching per client, for the
	// cache-pollution signal.
	prefetched map[int]string
	// lastReady records, per client, when its most recent file became
	// available — the baseline for the wait-excluded τcli measurement.
	lastReady map[string]time.Duration
	// sims holds this shard's live simulations: launched ones under their
	// launcher id and pipeline-pending ones under negative placeholder ids.
	sims      map[int64]*simState
	alphaEMA  *metrics.EMA
	stats     metrics.CtxStats
	checksums map[int]uint64
	// failures is the per-interval failure ledger (keyed by the launch
	// interval) driving retry backoff and quarantine; empty unless a
	// RetryPolicy is installed. retries counts ledger re-submissions,
	// quarantined counts circuit-breaker openings — kept out of CtxStats
	// so the experiment tables (rendered with %+v) stay byte-identical
	// to the pre-ledger goldens.
	failures    map[[2]int]*failureRec
	retries     int64
	quarantined int64
	// retryArmed lists the intervals whose retry timer is armed: from a
	// failed simulation's SimEnded to its retryLaunch the timer, not a
	// queued job, owns their pending markers (CheckInvariants clause 2).
	retryArmed [][2]int

	// upstream owns the hub waiters of this pipeline shard's parked
	// simulations, each tagged with its placeholder id; pipelineClient
	// is the client they wait as. Both are unset without Upstream.
	upstream       *notify.Owner
	pipelineClient string
}

// Virtualizer is the DV state machine. All exported methods are safe for
// concurrent use.
//
// Lock ordering (outermost first): shard locks in downstream→upstream
// pipeline order, then simMu, which is never held while acquiring a
// shard lock. ctxMu, the context directory's writer lock, is taken
// under no other.
type Virtualizer struct {
	clock    des.Clock
	launcher Launcher
	hub      *notify.Hub
	sched    *sched.Scheduler

	// dir is the context directory, never written once published: writers
	// replace it under ctxMu, so the data path finds a shard lock-free.
	ctxMu sync.Mutex
	dir   atomic.Pointer[map[string]*shard]

	// simMu guards simDir, the launcher-id → shard routing table for
	// simulator event callbacks. It is held across Launcher.Launch so an
	// event arriving concurrently with the launch finds the route.
	simMu  sync.Mutex
	simDir map[int64]*shard

	// placeholderSeq generates ids (< pendingSimID) for pipeline-pending
	// simulations not yet handed to the Launcher.
	placeholderSeq atomic.Int64

	// retryMu guards the failure-ledger policy and its jitter rng
	// (innermost: taken under shard locks, never the reverse).
	retryMu  sync.Mutex
	retry    RetryPolicy
	retryRng *rand.Rand
	// admitting counts drain passes between popping a job off the
	// scheduler and clearing its pending markers under the shard lock —
	// the window in which such markers have no owner (CheckInvariants 2).
	admitting atomic.Int32
}

// New returns a Virtualizer reading time from clock and running
// simulations through launcher, scheduling re-simulations with the
// default (paper-exact) policy: FIFO demand queueing at smax, prefetch
// dropped at capacity, no coalescing, unlimited nodes.
func New(clock des.Clock, launcher Launcher) *Virtualizer {
	return NewScheduled(clock, launcher, sched.Config{})
}

// NewScheduled returns a Virtualizer whose re-simulation launches are
// coordinated by a scheduler with the given policy (coalescing, priority
// classes, node-capacity admission — see internal/sched).
func NewScheduled(clock des.Clock, launcher Launcher, cfg sched.Config) *Virtualizer {
	v := &Virtualizer{
		clock:    clock,
		launcher: launcher,
		hub:      notify.NewHub(),
		sched:    sched.New(clock, cfg),
		simDir:   map[int64]*shard{},
		retryRng: rand.New(rand.NewSource(0)),
	}
	v.dir.Store(&noContexts)
	v.placeholderSeq.Store(pendingSimID)
	return v
}

// Hub returns the notification hub the Virtualizer publishes file-ready
// and file-failed events to. Watch is the race-free way to wait on files
// by name.
func (v *Virtualizer) Hub() *notify.Hub { return v.hub }

// AddContext registers a simulation context with a replacement policy
// named by policyName (Sec. III-D) and an optional storage-area mirror
// (nil for virtual-time experiments).
func (v *Virtualizer) AddContext(ctx *model.Context, policyName string, fs vfs.FS) error {
	ctx.ApplyDefaults()
	if err := ctx.Validate(); err != nil {
		return fmt.Errorf("core: %w: %v", ErrInvalid, err)
	}
	capacity := ctx.CacheCapacitySteps()
	if capacity == 0 {
		capacity = ctx.Grid.NumOutputSteps()
	}
	pol, err := cache.NewPolicy(policyName, capacity)
	if err != nil {
		return err
	}
	v.ctxMu.Lock()
	defer v.ctxMu.Unlock()
	contexts := v.contexts()
	if _, dup := contexts[ctx.Name]; dup {
		return fmt.Errorf("core: %w: duplicate context %q", ErrInvalid, ctx.Name)
	}
	if ctx.Upstream != "" {
		if _, ok := contexts[ctx.Upstream]; !ok {
			return fmt.Errorf("core: %w: context %q names unknown upstream %q", ErrInvalid, ctx.Name, ctx.Upstream)
		}
	}
	v.sched.Register(ctx.Name, ctx.SMax)
	cs := &shard{
		ctx:        ctx,
		cache:      cache.NewStepCache(pol, ctx.MaxCacheBytes),
		fs:         fs,
		agents:     map[string]*prefetch.Agent{},
		prefetched: map[int]string{},
		lastReady:  map[string]time.Duration{},
		sims:       map[int64]*simState{},
		alphaEMA:   metrics.NewEMA(ctx.AlphaSmoothing),
		checksums:  map[int]uint64{},
		failures:   map[[2]int]*failureRec{},
	}
	cs.cache.PinnedBy(func(step int) bool { return cs.step(step).refs > 0 })
	if ctx.Upstream != "" {
		cs.upstream = notify.NewOwner(func(tag uint64, ev notify.Event) { v.upstreamReady(cs, int64(tag), ev) })
		cs.pipelineClient = "pipeline:" + ctx.Name
	}
	next := maps.Clone(contexts)
	next[ctx.Name] = cs
	v.dir.Store(&next)
	return nil
}

// noContexts is every new Virtualizer's directory: it allocates none.
var noContexts = map[string]*shard{}

// contexts returns the context directory. It must not be written.
func (v *Virtualizer) contexts() map[string]*shard { return *v.dir.Load() }

// shardOf returns the shard of a context (unlocked).
func (v *Virtualizer) shardOf(name string) (*shard, bool) {
	cs, ok := v.contexts()[name]
	return cs, ok
}

// lockedShard returns the shard of a context with its lock held.
func (v *Virtualizer) lockedShard(name string) (*shard, error) {
	cs, ok := v.shardOf(name)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownContext, name)
	}
	cs.mu.Lock()
	return cs, nil
}

// lockedStep is lockedShard for a method that is handed one file name:
// the name becomes its step here, where it enters core, and everything
// behind speaks steps. The lock is held only when err is nil.
func (v *Virtualizer) lockedStep(ctxName, filename string) (*shard, int, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return nil, 0, err
	}
	step, err := cs.keyOf(filename)
	if err != nil {
		cs.mu.Unlock()
		return nil, 0, err
	}
	return cs, step, nil
}

// simShard routes a launcher simulation id to its shard (nil if the
// simulation is unknown or already ended).
func (v *Virtualizer) simShard(simID int64) *shard {
	v.simMu.Lock()
	cs := v.simDir[simID]
	v.simMu.Unlock()
	return cs
}

// dropSimRoute removes an ended simulation from the event routing table.
func (v *Virtualizer) dropSimRoute(simID int64) {
	v.simMu.Lock()
	delete(v.simDir, simID)
	v.simMu.Unlock()
}

// Context returns the registered context by name.
func (v *Virtualizer) Context(name string) (*model.Context, bool) {
	cs, ok := v.shardOf(name)
	if !ok {
		return nil, false
	}
	return cs.ctx, true
}

// Names is a netproto.Names over the registered contexts: for a context
// and a file name held as bytes, it returns the context's name and the
// file's name from its name table — the strings core already holds — when
// the file is exactly a tabled step's name. A decoder then copies neither.
func (v *Virtualizer) Names(ctx, file []byte) (ctxName, fileName string, step int, ok bool) {
	cs := v.contexts()[string(ctx)]
	if cs == nil {
		return "", "", 0, false
	}
	fileName, step, ok = cs.ctx.NameOf(file)
	return cs.ctx.Name, fileName, step, ok
}

// ContextNames lists registered contexts in sorted order.
func (v *Virtualizer) ContextNames() []string {
	return slices.Sorted(maps.Keys(v.contexts()))
}

// Stats returns a copy of the context's counters.
func (v *Virtualizer) Stats(ctxName string) (metrics.CtxStats, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return metrics.CtxStats{}, err
	}
	defer cs.mu.Unlock()
	return cs.stats, nil
}

// Report returns the context's stats record: the shard's counters, lock
// counters, failure-ledger counters and control-plane state, read in one
// hold of the shard lock, then the daemon-global scheduler ledger and
// client loads. Ops is left for the front end to fill.
func (v *Virtualizer) Report(ctxName string) (metrics.Report, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return metrics.Report{}, err
	}
	r := metrics.Report{
		CtxStats:    cs.stats,
		Draining:    cs.draining,
		CachePolicy: cs.cache.Policy().Name(),
		LockStats:   cs.mu.Stats(),
		Retries:     cs.retries,
		Quarantined: cs.quarantined,
	}
	cs.mu.Unlock()
	r.SchedStats = v.sched.Stats()
	r.ClientLoads = v.sched.ClientLoads()
	return r, nil
}

// TotalLockStats sums the shard-lock counters over all contexts.
func (v *Virtualizer) TotalLockStats() metrics.LockStats {
	var total metrics.LockStats
	for _, cs := range v.contexts() { //simfs:allow maporder commutative counter sum; the visit order never reaches the result
		total.Add(cs.mu.Stats())
	}
	return total
}

// SchedStats returns the re-simulation scheduler counters: queue depth,
// coalescing effectiveness, dropped/canceled prefetches and per-priority
// queueing delays. The scheduler is shared by all contexts.
func (v *Virtualizer) SchedStats() metrics.SchedStats {
	return v.sched.Stats()
}

// ClientDisconnected tells the DV that a client is gone: its queued
// prefetch jobs are de-queued and its running prefetch simulations are
// killed in every context, unless other clients wait for (or reference)
// the output. Front-ends call it after releasing the client's file
// references.
func (v *Virtualizer) ClientDisconnected(client string) {
	// Sorted shard order: the kills and notifications below are visible
	// to the DES, so the per-context teardown order must be stable.
	contexts := v.contexts()
	shards := make([]*shard, 0, len(contexts))
	for _, name := range slices.Sorted(maps.Keys(contexts)) {
		shards = append(shards, contexts[name])
	}
	// The departed client's fairness accounting dies with it: its quota
	// debt must not handicap an unrelated client reusing the name later.
	v.sched.DropClientQuota(client)
	anyFreed := false
	for _, cs := range shards {
		cs.mu.Lock()
		orphaned, freed := v.killPrefetchedFor(cs, client)
		anyFreed = anyFreed || freed
		// Sims of the departed client that survive (live waiters keep
		// them) lose their billing identity: a later requeue (pipeline
		// bounce, preemption) must not re-plant the quota entry
		// DropClientQuota just removed. prefetchFor stays — the kill
		// bookkeeping still needs to recognize the owner.
		for _, sim := range cs.sims { //simfs:allow maporder independent per-sim field clear; no effect depends on visit order
			if sim.client == client {
				sim.client = ""
			}
		}
		// Drop the departed client's per-shard learning state: its
		// prefetch agent, its τcli baseline, and its pollution-tracking
		// entries would otherwise accumulate per unique client name for
		// the daemon's lifetime.
		delete(cs.agents, client)
		delete(cs.lastReady, client)
		for s, c := range cs.prefetched {
			if c == client {
				delete(cs.prefetched, s)
			}
		}
		ws := v.take(cs, orphaned)
		cs.mu.Unlock()
		v.hub.Deliver(notify.Event{Kind: notify.FileFailed, Err: "re-simulation killed"}, ws)
	}
	if anyFreed {
		// De-queued jobs and dismantled placeholders freed capacity; one
		// drain covers every shard (launched kills drain through their
		// SimEnded events instead).
		v.drainScheduler()
	}
}

// StorageArea returns the context's storage-area file system (nil when
// running without one, as the virtual-time experiments do).
func (v *Virtualizer) StorageArea(ctxName string) (vfs.FS, error) {
	cs, ok := v.shardOf(ctxName)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownContext, ctxName)
	}
	return cs.fs, nil
}

// WatchedFile is one name of a Watch: the step it parsed to and the
// state that step was in when the stream's waiter was registered.
type WatchedFile struct {
	Name               string
	Step               int
	Resident, Promised bool
}

// Watch is the register-and-check step every readiness stream starts
// with, written down once. Each name is parsed (once) into its step;
// under one hold of the shard lock, so no wakeup is lost, each step's
// residency and promise are read and, unless it is resident, o's waiter
// for it is registered under tag as client's (whose τcli baseline
// stepArrived stamps), once per distinct step. o must be a stream owner
// (notify.NewStreamOwner): a file neither resident nor promised resolves
// only once somebody opens it or the context is deregistered, unless
// the stream withdraws it first. A refused name registers nothing.
func (v *Virtualizer) Watch(client, ctxName string, filenames []string, o *notify.Owner, tag uint64) ([]WatchedFile, error) {
	cs, ok := v.shardOf(ctxName)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownContext, ctxName)
	}
	files := make([]WatchedFile, len(filenames))
	for i, name := range filenames {
		step, err := cs.outputStep(name)
		if err != nil {
			return nil, err
		}
		files[i] = WatchedFile{Name: name, Step: step}
	}
	cs.mu.Lock()
	for i := range files {
		f := &files[i]
		f.Resident = cs.resident(f.Step)
		f.Promised = cs.step(f.Step).promised
		if !f.Resident && !slices.ContainsFunc(files[:i], func(g WatchedFile) bool { return g.Step == f.Step }) {
			v.hub.AwaitFor(notify.Topic{Context: ctxName, Step: f.Step}, client, o, tag)
		}
	}
	cs.mu.Unlock()
	return files, nil
}

// Preload marks output steps as already on disk (e.g. produced by the
// initial simulation), inserting them into the cache without counting
// re-simulation work.
func (v *Virtualizer) Preload(ctxName string, steps []int) error {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return err
	}
	for _, s := range steps {
		if !cs.ctx.Grid.ValidOutput(s) {
			cs.mu.Unlock()
			return fmt.Errorf("core: preload step %d out of range", s)
		}
	}
	var ws []notify.Waiter
	for _, s := range steps {
		ws = v.stepArrived(cs, s, ws)
	}
	cs.mu.Unlock()
	v.hub.Deliver(notify.Event{Kind: notify.FileReady}, ws)
	return nil
}

// RescanStorageArea synchronizes the cache with the files present in the
// context's storage area (daemon restart recovery).
func (v *Virtualizer) RescanStorageArea(ctxName string) (int, error) {
	cs, err := v.lockedShard(ctxName)
	if err != nil {
		return 0, err
	}
	if cs.fs == nil {
		cs.mu.Unlock()
		return 0, fmt.Errorf("core: context %q has no storage area", ctxName)
	}
	added := 0
	var ws []notify.Waiter
	for _, name := range cs.fs.List() {
		step, err := cs.outputStep(name)
		if err != nil {
			continue // restart files, foreign files, steps off the timeline
		}
		if !cs.resident(step) {
			ws = v.stepArrived(cs, step, ws)
			added++
		}
	}
	cs.mu.Unlock()
	v.hub.Deliver(notify.Event{Kind: notify.FileReady}, ws)
	return added, nil
}

// stepArrived is the one tail of a step reaching the storage area,
// whoever put it there (a re-simulation, Preload, a rescan): the step
// becomes resident; its promise is settled whichever simulation
// registered it — the file is on disk, which is all a promise guarantees;
// its waiters are taken onto ws and their clients' τcli baselines
// stamped. The caller delivers ws FileReady after unlocking. Caller holds
// the shard lock.
func (v *Virtualizer) stepArrived(cs *shard, step int, ws []notify.Waiter) []notify.Waiter {
	v.insertStep(cs, step)
	cs.steps.At(step).promised = false
	n := len(ws)
	ws = v.hub.Take(notify.Topic{Context: cs.ctx.Name, Step: step}, ws)
	for _, w := range ws[n:] {
		cs.lastReady[w.Client] = v.clock.Now()
	}
	return ws
}

// take detaches the waiters of steps whose fate the caller just decided,
// for it to deliver after unlocking. Caller holds the shard lock.
func (v *Virtualizer) take(cs *shard, steps []int) []notify.Waiter {
	var ws []notify.Waiter
	for _, s := range steps {
		ws = v.hub.Take(notify.Topic{Context: cs.ctx.Name, Step: s}, ws)
	}
	return ws
}

// insertStep makes a step resident, evicting unreferenced steps as
// needed. Caller holds the shard lock.
func (v *Virtualizer) insertStep(cs *shard, step int) {
	var err error
	cs.evicted, err = cs.cache.Insert(step, cs.ctx.OutputBytes, cs.ctx.Grid.MissCost(step), cs.evicted[:0])
	if err != nil {
		// A step larger than the whole storage area (Context.Validate
		// refuses to register one): the file stays on disk, untracked.
		return
	}
	for _, victim := range cs.evicted {
		cs.stats.Evictions++
		if cs.fs != nil {
			_ = cs.fs.Remove(cs.ctx.Filename(victim)) // best effort; absence is acceptable
		}
	}
}

// keyOf is ctx.Key for a file name a client supplied: a name outside the
// naming convention is the client's mistake, so the error wraps
// ErrInvalid.
func (cs *shard) keyOf(filename string) (int, error) {
	step, err := cs.ctx.Key(filename)
	if err != nil {
		return 0, fmt.Errorf("core: %w: %v", ErrInvalid, err)
	}
	return step, nil
}

// resolved returns the step a caller resolved filename to (at most one)
// if it is still filename's on this timeline: Filename, Key's inverse,
// returns the name-table string the decoder took, so a context registered
// again with another naming or a shorter timeline fails one comparison.
func (cs *shard) resolved(filename string, step []int) (int, bool) {
	if len(step) == 0 || !cs.ctx.Grid.ValidOutput(step[0]) || cs.ctx.Filename(step[0]) != filename {
		return 0, false
	}
	return step[0], true
}

// outputStep is keyOf for a name that must also lie on the simulated
// timeline.
func (cs *shard) outputStep(filename string) (int, error) {
	step, err := cs.keyOf(filename)
	if err == nil && !cs.ctx.Grid.ValidOutput(step) {
		err = fmt.Errorf("core: %w: %q is outside the simulated timeline", ErrInvalid, filename)
	}
	return step, err
}

// resident reports whether a step's file is on disk. Caller holds the
// shard lock.
func (cs *shard) resident(step int) bool { return cs.cache.Contains(step) }

// covered reports whether a step is resident or promised. Caller holds
// the shard lock.
func (cs *shard) covered(step int) bool {
	return cs.step(step).promised || cs.resident(step)
}

// referenced counts the steps someone holds a reference on. Caller holds
// the shard lock.
func (cs *shard) referenced() int {
	n := 0
	for _, st := range cs.steps.All {
		if st.refs > 0 {
			n++
		}
	}
	return n
}
