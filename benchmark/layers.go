package main

import (
	"fmt"

	"simfs/internal/netproto"
	"simfs/internal/simulator"
)

// commonLayers fills what every workload reports from its two phases:
// the ungated failure share, process-wide GC activity, the cost of
// tracing itself (in calibrated time, like the gated throughput) and the
// daemons' own counts.
func commonLayers(m metricSet, base, traced *phase) {
	m.set("trace.overhead_frac", 1-ratio(traced.opsPerSec()*traced.slow(), base.opsPerSec()*base.slow()))
	m.set("failed_frac", ratio(float64(base.failed+traced.failed), float64(base.attempted+traced.attempted)))
	m.set("proc.gc_cycles", float64(base.gcs))
	m.set("proc.gc_pause_ms", float64(base.gcPause)/1e6)
	m.set("proc.live_heap_mb", liveHeapMB())

	// Counts taken at the layer boundaries, per op of the untraced phase.
	cc, ops := base.core, base.ops()
	per := func(c int) float64 { return ratio(float64(cc[c]), ops) }
	m.set("resim_steps_per_op", per(cStepsProduced))
	m.set("simulator.restarts_per_op", per(cRestarts))
	m.set("cache.hit_frac", ratio(float64(cc[cHits]), float64(cc[cOpens])))
	m.set("cache.evictions_per_op", per(cEvictions))
	m.set("prefetch.launches_per_op", per(cPrefetchLaunches))
	m.set("prefetch.dropped_per_op", per(cDroppedPrefetch))
	m.set("core.lock_contended_frac", ratio(float64(cc[cLockContended]), float64(cc[cLockAcquisitions])))
	m.set("core.lock_wait_us_per_op", per(cLockWaitNs)/1e3)
	m.set("sched.demand_wait_us_per_miss", ratio(float64(cc[cDemandWaitNs])/1e3, float64(cc[cMisses])))
	m.set("sched.coalesced_per_op", per(cCoalesced))
}

// tcpLayers fills the per-layer metrics of a socket workload: counts
// from the daemons' own bookkeeping over the untraced phase, medians
// from the traced phase's spans, then the drills.
func tcpLayers(e *tcpEnv, base, traced *phase, ts *traceSet, m metricSet) error {
	miss := e.wl == wlMissResim
	per := e.sz.drill

	// Spans of the traced phase.
	for _, name := range []string{"dvlib.open", "dvlib.wait", "dvlib.close"} {
		h, _ := ts.aggOf(name)
		m.set(name+"_us", h.quantile(0.5)/1e3)
	}
	m.set("dvlib.open_ready_p99_us", base.lat.quantile(0.99)/1e3)
	m.set("dvlib.open_ready_samples", float64(base.lat.n))
	var simBusy float64
	for _, name := range []string{"core.sim_started", "core.step_produced", "core.sim_ended"} {
		_, total := ts.aggOf(name)
		simBusy += us(total)
	}
	m.set("core.sim_event_us_per_op", ratio(simBusy, traced.ops()))
	_, writeBusy := ts.aggOf("vfs.write")
	m.set("vfs.write_busy_frac", ratio(float64(writeBusy), float64(traced.wall)))
	m.set("vfs.bytes_written_per_op", ratio(float64(e.seamBytes.Load()), traced.ops()))

	// The daemon's own service-time histogram, through the stats frame.
	st, err := e.clients[0].ctx.Stats()
	if err != nil {
		return fmt.Errorf("stats frame: %w", err)
	}
	for _, ol := range st.Ops {
		switch ol.Op {
		case netproto.OpOpen:
			m.set("server.open_svc_p50_us", float64(ol.P50Ns)/1e3)
		case netproto.OpRelease:
			m.set("server.release_svc_p50_us", float64(ol.P50Ns)/1e3)
		}
	}

	// Drills, on the step sequence the clients actually issued.
	steps := e.recordedSteps()
	mc, _ := e.daemons[e.ctxs[0].daemon].V.Context(e.ctxs[0].name)
	frames := make([][]any, min(len(steps), 1024))
	for i := range frames {
		frames[i] = opFrames(mc.Name, mc.Filename(steps[i]), miss)
	}
	binNs, binAllocs, binBytes, err := drillCodec(netproto.Binary, frames, per)
	if err != nil {
		return fmt.Errorf("binary codec drill: %w", err)
	}
	jsonNs, _, _, err := drillCodec(netproto.JSON, frames, per)
	if err != nil {
		return fmt.Errorf("json codec drill: %w", err)
	}
	pingCodecNs, _, _, err := drillCodec(netproto.Binary, [][]any{pingFrames()}, per)
	if err != nil {
		return fmt.Errorf("ping codec drill: %w", err)
	}
	m.set("netproto.bin_codec_ns_per_op", binNs)
	m.set("netproto.bin_allocs_per_op", binAllocs)
	m.set("netproto.bin_bytes_per_op", binBytes)
	m.set("netproto.json_codec_ns_per_op", jsonNs)

	reqBytes, respBytes := frameSizes(frames[0])
	floor, err := drillTCPFloor(reqBytes, respBytes, 25*per)
	if err != nil {
		return fmt.Errorf("tcp floor drill: %w", err)
	}
	m.set("tcp.floor_rtt_us", us(floor))

	// Pings go straight to the daemons: the router answers a ping
	// itself, so through it they would not reach a session.
	direct, err := e.dialDirect()
	if err != nil {
		return fmt.Errorf("direct dial: %w", err)
	}
	defer direct.hangUp()
	ping, err := drillPing(direct.clients, 5*per)
	if err != nil {
		return fmt.Errorf("ping drill: %w", err)
	}
	m.set("dvlib.ping_rtt_us", us(ping))
	session := us(ping) - us(floor) - pingCodecNs/1e3
	m.set("server.session_us", session)

	hitNs, hitAllocs, err := drillCoreHit(mc, steps, per)
	if err != nil {
		return fmt.Errorf("core hit drill: %w", err)
	}
	m.set("core.open_hit_ns", hitNs)
	m.set("core.open_hit_allocs", hitAllocs)

	capacity := e.sz.steps
	if miss {
		capacity = e.sz.cacheSteps
	}
	cacheNs, err := drillCache(mc, steps, capacity, per)
	if err != nil {
		return fmt.Errorf("cache drill: %w", err)
	}
	m.set("cache.access_ns", cacheNs)

	createNs, removeNs, err := drillVFS(per)
	if err != nil {
		return fmt.Errorf("vfs drill: %w", err)
	}
	m.set("vfs.create_us", createNs/1e3)
	m.set("vfs.remove_us", removeNs/1e3)

	p50 := base.lat.quantile(0.5) / 1e3
	codecUs := binNs / 1e3
	var accounted float64
	switch e.wl {
	case wlHitPipelined:
		// The client encodes the whole window before the first byte
		// leaves; the median op then waits for half the window to be
		// decoded, served, answered and decoded again: 5/8 of a pair's
		// codec work per window slot, half a window of core pairs.
		accounted = us(floor) + session + pipeWindow*(codecUs*5/8) + pipeWindow/2*(hitNs/1e3)
	case wlHitRoutedSync:
		routed, err := drillRouter(e, direct, base, m)
		if err != nil {
			return err
		}
		// One round trip: the open's two frames, the session, the open
		// half of a core pair, and the hop.
		accounted = us(floor) + session + codecUs/2 + hitNs/2e3 + routed
	case wlMissResim:
		missP50, err := drillCoreMiss(mc, steps, per)
		if err != nil {
			return fmt.Errorf("core miss drill: %w", err)
		}
		m.set("core.miss_inproc_us", us(missP50))
		m.set("sched.submit_next_ns", drillSched(mc.Name, steps, stepsPerRun, per))
		m.set("notify.publish_deliver_ns", drillNotify(1, per))
		m.set("notify.publish_fanout100_ns", drillNotify(100, max(per/20, 1)))
		m.set("simulator.launch_turnaround_us", us(drillLaunch(mc, per)))
		// Two round trips (open, subscribe) and the one-way ready push
		// around the in-process miss path, which already holds sched,
		// launcher, vfs, cache and notify.
		accounted = us(missP50) + 2.5*us(floor) + 2*session + codecUs
	}
	m.set("budget.residual_frac", 1-ratio(accounted, p50))
	return nil
}

// drillRouter prices the router hop: the workload's own sync loop run
// once more through the router and once dialled directly, back to back,
// same duration. It returns the hop in microseconds.
func drillRouter(e, direct *tcpEnv, base *phase, m metricSet) (float64, error) {
	d := base.wall / 4
	via := e.run(d, nil)
	straight := direct.run(d, nil)
	if straight.failed > 0 {
		return 0, fmt.Errorf("router drill: %d direct ops failed", straight.failed)
	}
	hop := (via.lat.quantile(0.5) - straight.lat.quantile(0.5)) / 1e3
	m.set("fed.router_hop_us", hop)
	m.set("fed.router_cpu_us_per_op", ratio(us(via.cpu), via.ops())-ratio(us(straight.cpu), straight.ops()))
	m.set("fed.router_allocs_per_op", ratio(float64(via.mallocs), via.ops())-ratio(float64(straight.mallocs), straight.ops()))
	names := make([]string, len(e.ctxs))
	for i, cr := range e.ctxs {
		names[i] = cr.name
	}
	m.set("fed.ring_owner_ns", drillRingOwner(e.router.Ring(), names, e.sz.drill))
	return hop, nil
}

// desLayers fills des_multi's own per-layer metrics from the untraced
// replays and the drills.
func desLayers(seed int64, sz sizes, base *desPhase, m metricSet) error {
	// The exact virtual-time outputs come from the fixed replay prefix.
	m.set("resim_steps_per_op", ratio(float64(base.virtSteps), float64(base.virtReplays*desOpsPerRun)))
	m.set("virt_completion_p50_s", median(base.virtCompletion))

	mc := simulator.CosmoScaling()
	seqs := desSequences(seed, mc.Grid.NumOutputSteps())
	var steps []int
	for i := 0; i < desAccesses; i++ { // interleaved, as the engine runs them
		for _, seq := range seqs {
			steps = append(steps, seq[i])
		}
	}
	per := sz.drill
	hitNs, hitAllocs, err := drillCoreHit(mc, steps, per)
	if err != nil {
		return fmt.Errorf("core hit drill: %w", err)
	}
	m.set("core.open_hit_ns", hitNs)
	m.set("core.open_hit_allocs", hitAllocs)
	cacheNs, err := drillCache(mc, steps, desCacheSteps, per)
	if err != nil {
		return fmt.Errorf("cache drill: %w", err)
	}
	m.set("cache.access_ns", cacheNs)
	m.set("sched.submit_next_ns", drillSched(mc.Name, steps, mc.Grid.OutputsPerRestart(), per))
	m.set("des.event_ns", drillDES(100*per))
	m.set("prefetch.on_access_ns", drillPrefetch(mc, seqs, per))
	replayNs, err := drillReplay(max(per/400, 1))
	if err != nil {
		return fmt.Errorf("replay drill: %w", err)
	}
	m.set("experiments.replay_ns_per_access", replayNs)
	return nil
}
