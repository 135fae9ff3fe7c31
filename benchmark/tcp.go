package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/dvlib"
	"simfs/internal/fed"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/server"
	"simfs/internal/simulator"
	"simfs/internal/vfs"
)

// The TCP workloads: the real daemon stack(s) in this process, dvlib
// clients over loopback, each client a closed loop on its own connection.
const (
	wlHitPipelined  = "hit_pipelined"
	wlHitRoutedSync = "hit_routed_sync"
	wlMissResim     = "miss_resim"
	wlDESMulti      = "des_multi"
)

const (
	numClients    = 2  // = nproc of the reference box; main refuses fewer cores
	pipeWindow    = 16 // hit_pipelined: open/release pairs per flush
	fileBytes     = 64
	stepsPerRun   = 8  // output steps per restart interval (ΔR/ΔD)
	checkEvery    = 64 // 1 op in checkEvery reads the file back
	trailLen      = 4096
	maxFailStreak = 100 // a client this unlucky has lost its connection
)

// sizes are the workload dimensions. fullSizes is the benchmark; the
// self-test shrinks them so it runs in a fraction of a second.
type sizes struct {
	steps      int // output steps per context
	warmup     int // untimed ops per client before measuring
	cacheSteps int // miss_resim: cache capacity in output steps
	setups     int // set-up repetitions behind setup_s
	desWarm    int // des_multi: untimed warm-up replays
	desVirt    int // des_multi: replays behind the virtual-time outputs
	drill      int // drill iterations per batch
}

var fullSizes = sizes{steps: 4096, warmup: 2000, cacheSteps: 64, setups: 5, desWarm: 64, desVirt: 256, drill: 2000}

func benchContext(name string, sz sizes, miss bool) *model.Context {
	c := &model.Context{
		Name: name, Grid: model.Grid{DeltaD: 1, DeltaR: stepsPerRun, Timesteps: sz.steps},
		OutputBytes: fileBytes, RestartBytes: fileBytes,
		Tau: time.Millisecond, Alpha: time.Millisecond,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	if miss {
		// The model terms scaled to nothing: what is left of open→ready
		// is the paper's "system overhead".
		c.Tau, c.Alpha = time.Microsecond, time.Microsecond
		c.MaxCacheBytes = int64(sz.cacheSteps) * fileBytes
	}
	return c
}

// intervalOf numbers the restart interval (from 1) that holds a step.
func intervalOf(step int) int { return (step-1)/stepsPerRun + 1 }

// ctxRef names one benchmark context and the daemon that serves it.
type ctxRef struct {
	name   string
	daemon int
}

// daemon is one in-process SimFS daemon, wired from the same public
// constructors server.NewStack uses — Virtualizer, real-time launcher,
// TCP front-end — but over in-memory storage areas: the benchmark may
// only write inside its checkout, and the disk there prices one inode at
// 300–500 µs and drifts (see README.md), which would drown the program.
type daemon struct {
	V        *core.Virtualizer
	Launcher *simulator.RealTimeLauncher
	Server   *server.Server
	areas    map[string]*vfs.Mem // filled before Serve, read-only after
}

func newDaemon(timeScale int) *daemon {
	d := &daemon{Launcher: &simulator.RealTimeLauncher{TimeScale: timeScale}, areas: map[string]*vfs.Mem{}}
	d.V = core.New(des.NewWallClock(), d.Launcher)
	d.Launcher.Events = d.V
	d.Launcher.Write = func(ctx *model.Context, step int) error {
		return d.areas[ctx.Name].Create(ctx.Filename(step), ctx.OutputBytes)
	}
	d.Server = server.New(d.V, nil)
	return d
}

// addContext registers a context over a fresh storage area. With
// preloaded set every output step is already "on disk", as after an
// initial simulation that kept its output.
func (d *daemon) addContext(ctx *model.Context, preloaded bool) error {
	area := vfs.NewMem()
	d.areas[ctx.Name] = area
	if err := d.V.AddContext(ctx, "DCL", area); err != nil {
		return err
	}
	if !preloaded {
		return nil
	}
	steps := make([]int, ctx.Grid.NumOutputSteps())
	for i := range steps {
		steps[i] = i + 1
		if err := area.Create(ctx.Filename(i+1), ctx.OutputBytes); err != nil {
			return err
		}
	}
	return d.V.Preload(ctx.Name, steps)
}

type tcpEnv struct {
	wl      string
	sz      sizes
	seed    int64
	daemons []*daemon
	router  *fed.Router
	ctxs    []ctxRef
	clients []*client

	seamBytes atomic.Int64 // bytes through the wrapped Launcher.Write
}

// client is one closed-loop analysis: a connection, a context handle and
// a seeded generator. Only its own goroutine touches it while a phase
// runs.
type client struct {
	id    int
	conn  *dvlib.Client
	ctx   *dvlib.Context
	area  *vfs.Mem // the context's storage area: what the analysis reads
	files []string // files[s-1] names output step s
	rng   *rand.Rand
	zipf  *rand.Zipf

	lat               hist
	attempted, failed uint64
	streak            int
	seq               uint64
	trail             [trailLen]int32 // the last steps accessed, for the drills
	rec               *recorder       // nil outside the traced phase
}

func (c *client) resetCounters() {
	c.lat = hist{}
	c.attempted, c.failed, c.streak = 0, 0, 0
}

// setupTCP builds a workload's daemon(s), dials the clients and runs the
// warm-up.
func setupTCP(wl string, sz sizes, seed int64) (env *tcpEnv, err error) {
	env = &tcpEnv{wl: wl, sz: sz, seed: seed}
	defer func() {
		if err != nil {
			_ = env.close() // the set-up error is the one worth reporting
			env = nil
		}
	}()

	// listen starts a daemon's listener; serve is deferred until its
	// contexts exist, so nothing registers under a live accept loop.
	listen := func(timeScale int) (*daemon, error) {
		d := newDaemon(timeScale)
		if err := d.Server.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		env.daemons = append(env.daemons, d)
		return d, nil
	}

	target := ""
	switch wl {
	case wlHitPipelined:
		// Each client owns a context, so the clients never share a shard.
		d, err := listen(1)
		if err != nil {
			return env, err
		}
		for _, name := range []string{"hp0", "hp1"} {
			if err := d.addContext(benchContext(name, sz, false), true); err != nil {
				return env, err
			}
			env.ctxs = append(env.ctxs, ctxRef{name, 0})
		}
		target = d.Server.Addr()
	case wlMissResim:
		// One shared context, so clients and simulation events meet on
		// its shard lock.
		d, err := listen(1000)
		if err != nil {
			return env, err
		}
		if err := d.addContext(benchContext("mr", sz, true), false); err != nil {
			return env, err
		}
		env.ctxs = []ctxRef{{"mr", 0}, {"mr", 0}}
		target = d.Server.Addr()
	case wlHitRoutedSync:
		addrs := make([]string, numClients)
		for i := range addrs {
			d, err := listen(1)
			if err != nil {
				return env, err
			}
			addrs[i] = d.Server.Addr()
		}
		env.router = fed.NewRouter(addrs, 0, nil)
		if err := env.router.Listen("127.0.0.1:0"); err != nil {
			return env, err
		}
		go env.router.Serve() // returns when close shuts the listener
		target = env.router.Addr()
		// Scan fixed-width candidate names until every daemon owns one:
		// the ring hashes ephemeral ports, the placement must not.
		env.ctxs = make([]ctxRef, numClients)
		for i, placed := 0, 0; placed < numClients; i++ {
			name := fmt.Sprintf("hr%04d", i)
			owner := env.router.Ring().Owner(name)
			for d, a := range addrs {
				if a == owner && env.ctxs[d].name == "" {
					env.ctxs[d] = ctxRef{name, d}
					placed++
					if err := env.daemons[d].addContext(benchContext(name, sz, false), true); err != nil {
						return env, err
					}
				}
			}
		}
	default:
		return env, fmt.Errorf("not a TCP workload: %q", wl)
	}
	for _, d := range env.daemons {
		go d.Server.Serve() // returns when close shuts the listener
	}

	for c := 0; c < numClients; c++ {
		cl, err := env.dial(target, c, seed)
		if cl != nil {
			env.clients = append(env.clients, cl)
		}
		if err != nil {
			return env, err
		}
	}

	env.each(func(c *client) {
		left := sz.warmup
		env.loop(c, func() bool { left--; return left < 0 })
	})
	for _, c := range env.clients {
		if c.failed > 0 {
			return env, fmt.Errorf("warm-up: client %d failed %d of %d ops", c.id, c.failed, c.attempted)
		}
	}
	return env, nil
}

// dial connects client c to addr and opens its context. On error the
// client is still returned when a connection exists, for the caller to
// close.
func (e *tcpEnv) dial(addr string, c int, seed int64) (*client, error) {
	conn, err := dvlib.Dial(addr, fmt.Sprintf("bench%d", c))
	if err != nil {
		return nil, err
	}
	cr := e.ctxs[c]
	cl := &client{id: c, conn: conn, area: e.daemons[cr.daemon].areas[cr.name],
		rng: rand.New(rand.NewSource(seed<<8 | int64(c)))}
	if cl.ctx, err = conn.Init(cr.name); err != nil {
		return cl, err
	}
	cl.files = make([]string, e.sz.steps)
	for s := range cl.files {
		cl.files[s] = cl.ctx.Filename(s + 1)
	}
	cl.zipf = rand.NewZipf(cl.rng, 1.1, 1, uint64(e.sz.steps-1))
	return cl, nil
}

// each runs fn for every client concurrently and waits for all.
func (e *tcpEnv) each(fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// loop drives one client's closed loop until stop reports true (asked
// once per op, or once per window when pipelining).
func (e *tcpEnv) loop(c *client, stop func() bool) {
	switch e.wl {
	case wlHitPipelined:
		c.pipelined(stop)
	case wlHitRoutedSync:
		c.sync(false, stop)
	case wlMissResim:
		c.sync(true, stop)
	}
}

// nextStep draws the next output step: Zipf(1.1) over the preloaded set
// for the hit workloads, uniform over the timeline for the miss workload.
func (c *client) nextStep(uniform bool) int {
	var s int
	if uniform {
		s = 1 + c.rng.Intn(len(c.files))
	} else {
		s = 1 + int(c.zipf.Uint64())
	}
	c.trail[c.seq%trailLen] = int32(s)
	c.seq++
	return s
}

// fail books a failed op; it reports whether the client should give up.
func (c *client) fail() bool {
	c.failed++
	c.streak++
	return c.streak >= maxFailStreak
}

// contentOK reads the file the way a transparent-mode analysis would and
// compares it with what the simulator is defined to produce.
func (c *client) contentOK(file string) bool {
	got, err := c.area.Read(file)
	return err == nil && bytes.Equal(got, vfs.Content(file, fileBytes))
}

// sync is the unbatched closed loop: one request in flight. Open, wait
// for the file if it is being re-simulated, close.
func (c *client) sync(miss bool, stop func() bool) {
	for !stop() {
		step := c.nextStep(miss)
		file := c.files[step-1]
		c.attempted++
		t0 := now()
		res, err := c.ctx.Open(file)
		t1 := now()
		if err != nil {
			if c.fail() {
				return
			}
			continue
		}
		ready, t2 := res.Available, t1
		if !ready && miss {
			ready = c.ctx.WaitAvailable(file) == nil
			t2 = now()
		}
		ok := ready && (c.seq%checkEvery != 0 || c.contentOK(file))
		t3 := now()
		err = c.ctx.Close(file)
		t4 := now()
		if !ok || err != nil {
			if c.fail() {
				return
			}
			continue
		}
		c.streak = 0
		c.lat.add(t2 - t0)
		c.trace(c.seq, step, t0, t1, t2, t3, t4)
	}
}

// trace records one finished op while a traced phase runs: the root op
// span [t0,t4] with children dvlib.open [t0,t1], dvlib.wait [t1,t2] when
// the client waited, and dvlib.close [t3,t4].
func (c *client) trace(seq uint64, step int, t0, t1, t2, t3, t4 time.Duration) {
	r := c.rec
	if r == nil {
		return
	}
	keep := r.room(4)
	seq |= r.idBase // op ids are unique across clients
	op := span{Name: "op", ID: r.reserve(), Op: seq, Start: int64(t0), End: int64(t4), interval: intervalOf(step)}
	r.add(span{Name: "dvlib.open", Parent: op.ID, Op: seq, Start: int64(t0), End: int64(t1)}, keep)
	if t2 != t1 {
		r.add(span{Name: "dvlib.wait", Parent: op.ID, Op: seq, Start: int64(t1), End: int64(t2)}, keep)
	}
	r.add(span{Name: "dvlib.close", Parent: op.ID, Op: seq, Start: int64(t3), End: int64(t4)}, keep)
	r.add(op, keep)
}

// pipelined is the batched closed loop: a window of open/release pairs
// leaves in one write, then the client waits on all of them. An op's
// open→ready runs from its OpenAsync to the return of its Wait.
func (c *client) pipelined(stop func() bool) {
	var (
		opens [pipeWindow]*dvlib.OpenCall
		rels  [pipeWindow]*dvlib.ReleaseCall
		steps [pipeWindow]int
		seqs  [pipeWindow]uint64
		t0    [pipeWindow]time.Duration
	)
	for !stop() {
		n := 0
		for ; n < pipeWindow; n++ {
			steps[n] = c.nextStep(false)
			seqs[n] = c.seq
			file := c.files[steps[n]-1]
			t0[n] = now()
			oc, err := c.ctx.OpenAsync(file)
			if err != nil {
				break
			}
			rc, err := c.ctx.ReleaseAsync(file)
			if err != nil {
				// The open is queued and will take a reference the
				// client can no longer pair; only a dead connection
				// gets here, and that ends the client below.
				break
			}
			opens[n], rels[n] = oc, rc
		}
		broken := n < pipeWindow
		for i := 0; i < n; i++ {
			c.attempted++
			res, err := opens[i].Wait()
			t1 := now()
			relErr := rels[i].Wait()
			t2 := now()
			file := c.files[steps[i]-1]
			if err != nil || relErr != nil || !res.Available ||
				(seqs[i]%checkEvery == 0 && !c.contentOK(file)) {
				broken = c.fail() || broken
				continue
			}
			c.streak = 0
			c.lat.add(t1 - t0[i])
			c.trace(seqs[i], steps[i], t0[i], t1, t1, t1, t2)
		}
		if n < pipeWindow { // the op that could not be queued
			c.attempted++
			c.failed++
		}
		if broken {
			return
		}
	}
}

// coreCounters is the daemons' own bookkeeping — context, scheduler and
// shard-lock counters, read in-process through the Virtualizer's public
// accessors — as one vector, so that sums and differences are loops.
type coreCounters [nCounters]int64

const (
	cOpens = iota
	cHits
	cMisses
	cRestarts
	cPrefetchLaunches
	cDroppedPrefetch
	cStepsProduced
	cEvictions
	cFailures
	cCoalesced
	cDemandWaitNs
	cLockAcquisitions
	cLockContended
	cLockWaitNs
	nCounters
)

// plus returns cc + sign·o, field by field.
func (cc coreCounters) plus(o coreCounters, sign int64) coreCounters {
	for i := range cc {
		cc[i] += sign * o[i]
	}
	return cc
}

// countersOf lifts one context's and one scheduler's stats into a vector.
func countersOf(s core.CtxStats, ss metrics.SchedStats) coreCounters {
	return coreCounters{
		cOpens: s.Opens, cHits: s.Hits, cMisses: s.Misses, cRestarts: s.Restarts,
		cPrefetchLaunches: s.PrefetchLaunches, cDroppedPrefetch: s.DroppedPrefetch,
		cStepsProduced: s.StepsProduced, cEvictions: s.Evictions, cFailures: s.Failures,
		cCoalesced: int64(ss.Coalesced), cDemandWaitNs: int64(ss.DemandWait.Wait),
	}
}

// counters sums the benchmark's contexts (each once) and every daemon's
// scheduler and locks.
func (e *tcpEnv) counters() coreCounters {
	var cc coreCounters
	seen := map[string]bool{}
	for _, cr := range e.ctxs {
		if seen[cr.name] {
			continue
		}
		seen[cr.name] = true
		s, _ := e.daemons[cr.daemon].V.Stats(cr.name) // the context is registered: no error
		cc = cc.plus(countersOf(s, metrics.SchedStats{}), 1)
	}
	for _, st := range e.daemons {
		cc = cc.plus(countersOf(core.CtxStats{}, st.V.SchedStats()), 1)
		ls := st.V.TotalLockStats()
		cc[cLockAcquisitions] += int64(ls.Acquisitions)
		cc[cLockContended] += int64(ls.Contended)
		cc[cLockWaitNs] += int64(ls.Wait)
	}
	return cc
}

// phase is one measured stretch of a workload: totals over its windows
// and the reference probes taken between them.
type phase struct {
	attempted, failed uint64
	wall, cpu         time.Duration
	mallocs           uint64
	gcs               uint32
	gcPause           time.Duration
	lat               hist
	core              coreCounters
	probes            []float64 // probe() times, ns
}

func (p *phase) ops() float64 { return float64(p.attempted - p.failed) }

func (p *phase) opsPerSec() float64 { return ratio(p.ops(), p.wall.Seconds()) }

// slow is how much slower than nominal the box ran during the phase.
func (p *phase) slow() float64 { return median(p.probes) / float64(nominalProbe) }

// absorb adds the stretch w to p.
func (p *phase) absorb(w *phase) {
	p.attempted += w.attempted
	p.failed += w.failed
	p.wall += w.wall
	p.cpu += w.cpu
	p.mallocs += w.mallocs
	p.gcs += w.gcs
	p.gcPause += w.gcPause
	p.lat.merge(&w.lat)
	p.core = p.core.plus(w.core, 1)
	p.probes = append(p.probes, w.probes...)
}

// window takes one probe, then runs fn between two process readings and
// returns what it cost.
func window(fn func()) phase {
	pr := float64(probe())
	s0 := snap()
	fn()
	s1 := snap()
	return phase{wall: s1.at - s0.at, cpu: s1.cpu - s0.cpu, mallocs: s1.mallocs - s0.mallocs,
		gcs: s1.gcs - s0.gcs, gcPause: s1.gcPause - s0.gcPause, probes: []float64{pr}}
}

// windowLen is how often a phase pauses for a probe.
const windowLen = 500 * time.Millisecond

// windowsIn cuts d into near-windowLen slices (at least one).
func windowsIn(d time.Duration) (n int, each time.Duration) {
	n = max(int((d+windowLen/2)/windowLen), 1)
	return n, d / time.Duration(n)
}

// run measures the workload for d, a window at a time. With a trace set
// the clients record spans and the launcher seams are wrapped for the
// duration.
func (e *tcpEnv) run(d time.Duration, ts *traceSet) phase {
	if ts != nil {
		restore := e.wrapSeams(ts.launcher)
		defer restore()
		for i, c := range e.clients {
			c.rec = ts.clients[i]
			defer func() { c.rec = nil }()
		}
	}
	var p phase
	c0 := e.counters()
	n, each := windowsIn(d)
	for i := 0; i < n; i++ {
		for _, c := range e.clients {
			c.resetCounters()
		}
		w := window(func() {
			deadline := now() + each
			e.each(func(c *client) { e.loop(c, func() bool { return now() >= deadline }) })
		})
		for _, c := range e.clients {
			w.attempted += c.attempted
			w.failed += c.failed
			w.lat.merge(&c.lat)
		}
		p.absorb(&w)
	}
	p.core = e.counters().plus(c0, -1)
	return p
}

// wrapSeams puts spans around the two launcher seams the stack exposes —
// the file write and the simulation life-cycle events into core — and
// returns the function that puts the originals back. The launcher's
// fields are read by simulation goroutines, so they are only swapped
// while no simulation runs.
func (e *tcpEnv) wrapSeams(rec *recorder) (restore func()) {
	type saved struct {
		write  func(*model.Context, int) error
		events simulator.Events
	}
	olds := make([]saved, len(e.daemons))
	for i, st := range e.daemons {
		st.Launcher.Wait()
		olds[i] = saved{st.Launcher.Write, st.Launcher.Events}
		inner := olds[i].write
		st.Launcher.Write = func(ctx *model.Context, step int) error {
			t0 := now()
			err := inner(ctx, step)
			rec.add(span{Name: "vfs.write", Start: int64(t0), End: int64(now()), interval: intervalOf(step)}, true)
			e.seamBytes.Add(ctx.OutputBytes)
			return err
		}
		st.Launcher.Events = &tracedEvents{inner: olds[i].events, rec: rec}
	}
	return func() {
		for i, st := range e.daemons {
			st.Launcher.Wait()
			st.Launcher.Write, st.Launcher.Events = olds[i].write, olds[i].events
		}
	}
}

// tracedEvents times the simulation life-cycle callbacks into core.
type tracedEvents struct {
	inner simulator.Events
	rec   *recorder
}

func (t *tracedEvents) timed(name string, id int64, interval int, call func()) {
	t0 := now()
	call()
	t.rec.add(span{Name: name, Start: int64(t0), End: int64(now()), simID: id, interval: interval}, true)
}

func (t *tracedEvents) SimStarted(id int64) {
	t.timed("core.sim_started", id, 0, func() { t.inner.SimStarted(id) })
}

func (t *tracedEvents) StepProduced(id int64, step int) {
	t.timed("core.step_produced", id, intervalOf(step), func() { t.inner.StepProduced(id, step) })
}

func (t *tracedEvents) SimEnded(id int64, outcome simulator.Outcome) {
	t.timed("core.sim_ended", id, 0, func() { t.inner.SimEnded(id, outcome) })
}

// recordedSteps returns the access sequence of all clients, oldest
// first per client: the input the drills replay.
func (e *tcpEnv) recordedSteps() []int {
	var out []int
	for _, c := range e.clients {
		n := min(c.seq, trailLen)
		for i := c.seq - n; i < c.seq; i++ {
			out = append(out, int(c.trail[i%trailLen]))
		}
	}
	return out
}

// verify runs the end-of-run output checks that need the live daemons.
func (e *tcpEnv) verify() error {
	cc := e.counters()
	var errs []error
	if e.wl == wlMissResim {
		if cc[cFailures] != 0 {
			errs = append(errs, fmt.Errorf("%d re-simulations failed", cc[cFailures]))
		}
		if frac := ratio(float64(cc[cMisses]), float64(cc[cOpens])); frac < 0.95 {
			errs = append(errs, fmt.Errorf("only %.3f of opens missed; the workload is meant to miss", frac))
		}
	} else if cc[cMisses] != 0 || cc[cRestarts] != 0 {
		errs = append(errs, fmt.Errorf("hit workload saw %d misses and %d restarts", cc[cMisses], cc[cRestarts]))
	}
	return errors.Join(errs...)
}

// hangUp closes the clients' connections.
func (e *tcpEnv) hangUp() {
	for _, c := range e.clients {
		c.conn.Close()
	}
}

// dialDirect returns a view of the environment whose clients are dialled
// straight at the daemons that own their contexts, bypassing whatever
// sits in front. The view shares the daemons: hang it up, never close it.
func (e *tcpEnv) dialDirect() (*tcpEnv, error) {
	d := &tcpEnv{wl: e.wl, sz: e.sz, seed: e.seed, daemons: e.daemons, ctxs: e.ctxs}
	for c, cr := range e.ctxs {
		cl, err := e.dial(e.daemons[cr.daemon].Server.Addr(), c, e.seed+1)
		if cl != nil {
			d.clients = append(d.clients, cl)
		}
		if err != nil {
			d.hangUp()
			return nil, err
		}
	}
	return d, nil
}

// close hangs up the clients, stops the router and the daemons, and
// checks what must hold once everything is quiet. It is safe on a
// half-built environment.
func (e *tcpEnv) close() error {
	e.hangUp()
	if e.router != nil {
		e.router.Close()
	}
	var errs []error
	for i, d := range e.daemons {
		d.Server.Close()
		d.Launcher.Wait()
		if err := d.V.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("daemon %d: %w", i, err))
		}
		if area := d.areas["mr"]; area != nil {
			if n := len(area.List()); n > e.sz.cacheSteps {
				errs = append(errs, fmt.Errorf("%d files resident, the cache holds %d", n, e.sz.cacheSteps))
			}
		}
	}
	return errors.Join(errs...)
}
