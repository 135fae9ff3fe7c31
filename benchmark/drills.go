package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"simfs/internal/cache"
	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/experiments"
	"simfs/internal/fed"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/notify"
	"simfs/internal/prefetch"
	"simfs/internal/sched"
	"simfs/internal/simulator"
	"simfs/internal/trace"
	"simfs/internal/vfs"
)

// The drills drive one layer each, in isolation, through its public
// functions, on the calling goroutine, with inputs recorded from the
// workload's live phase. They price the layers; the live phases price
// the whole.

const drillRounds = 9 // batches per drill; the median batch is reported

// opFrames is every frame one op puts on a direct connection, both
// directions: open and release with their responses, plus the subscribe
// and its ready and done pushes when the open misses.
func opFrames(ctxName, file string, miss bool) []any {
	env := func(id uint64, op string, body any) netproto.Envelope {
		e, _ := netproto.NewEnvelope(id, op, body) // documented to never fail
		return e
	}
	fb := netproto.FileBody{Context: ctxName, File: file}
	frames := []any{
		env(1001, netproto.OpOpen, fb),
		netproto.Response{ID: 1001, OK: true, Available: !miss},
		env(1002, netproto.OpRelease, fb),
		netproto.Response{ID: 1002, OK: true},
	}
	if miss {
		frames = append(frames,
			env(1003, netproto.OpSubscribe, netproto.FilesBody{Context: ctxName, Files: []string{file}}),
			netproto.Response{ID: 1003, OK: true, Ready: true, File: file},
			netproto.Response{ID: 1003, OK: true, Done: true})
	}
	return frames
}

func pingFrames() []any {
	e, _ := netproto.NewEnvelope(1001, netproto.OpPing, nil)
	return []any{e, netproto.Response{ID: 1001, OK: true}}
}

// codecPass encodes and decodes each frame once, as the two ends of a
// connection do, and returns the bytes that crossed.
func codecPass(codec netproto.Codec, frames []any, buf *bytes.Buffer, rd *bytes.Reader) (int, error) {
	n := 0
	for _, f := range frames {
		buf.Reset()
		if err := codec.EncodeFrame(buf, f); err != nil {
			return n, err
		}
		n += buf.Len()
		rd.Reset(buf.Bytes())
		var err error
		if _, isEnv := f.(netproto.Envelope); isEnv {
			var e netproto.Envelope
			err = codec.DecodeFrame(rd, &e)
		} else {
			var r netproto.Response
			err = codec.DecodeFrame(rd, &r)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// drillCodec prices a codec over per-op frame sets: ns, allocations and
// wire bytes per op.
func drillCodec(codec netproto.Codec, ops [][]any, per int) (ns, allocs, wireBytes float64, err error) {
	var buf bytes.Buffer
	var rd bytes.Reader
	total := 0
	ns, allocs = timeCalls(drillRounds, per, func(i int) {
		n, e := codecPass(codec, ops[i%len(ops)], &buf, &rd)
		total += n
		if e != nil {
			err = e
		}
	})
	return ns, allocs, float64(total) / float64(drillRounds*per), err
}

// frameSizes returns the wire size of the first request and response of
// an op under the binary codec: what the raw TCP floor must carry.
func frameSizes(frames []any) (req, resp int) {
	var buf bytes.Buffer
	_ = netproto.Binary.EncodeFrame(&buf, frames[0]) // same frames the codec drill checks
	req = buf.Len()
	buf.Reset()
	_ = netproto.Binary.EncodeFrame(&buf, frames[1])
	return req, buf.Len()
}

// drillTCPFloor is the reference nobody can optimise: a raw loopback
// ping-pong with the op's frame sizes and the workload's client count,
// no SimFS code on either side. It returns the median round trip.
func drillTCPFloor(reqBytes, respBytes, trips int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 2*numClients)
	hists := make([]hist, numClients)
	for c := 0; c < numClients; c++ {
		wg.Add(2)
		go func() { // echo side
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			req, resp := make([]byte, reqBytes), make([]byte, respBytes)
			for {
				if _, err := io.ReadFull(conn, req); err != nil {
					return // the client hung up: done
				}
				if _, err := conn.Write(resp); err != nil {
					return
				}
			}
		}()
		go func() { // client side
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			req, resp := make([]byte, reqBytes), make([]byte, respBytes)
			for i := 0; i < trips; i++ {
				t0 := now()
				if _, err := conn.Write(req); err != nil {
					errs <- err
					return
				}
				if _, err := io.ReadFull(conn, resp); err != nil {
					errs <- err
					return
				}
				hists[c].add(now() - t0)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	var all hist
	for i := range hists {
		all.merge(&hists[i])
	}
	return time.Duration(all.quantile(0.5)), nil
}

// drillPing is the median Client.Ping round trip with all clients
// pinging at once: the wire and the daemon's session, nothing of core.
func drillPing(clients []*client, trips int) (time.Duration, error) {
	var mu sync.Mutex
	var all hist
	var firstErr error
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h hist
			var err error
			for i := 0; i < trips && err == nil; i++ {
				t0 := now()
				err = c.conn.Ping()
				h.add(now() - t0)
			}
			mu.Lock()
			defer mu.Unlock()
			all.merge(&h)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	return time.Duration(all.quantile(0.5)), firstErr
}

// drillRingOwner prices fed.Ring.Owner over the workload's context names.
func drillRingOwner(ring *fed.Ring, names []string, per int) float64 {
	var sink string
	ns, _ := timeCalls(drillRounds, per, func(i int) { sink = ring.Owner(names[i%len(names)]) })
	_ = sink
	return ns
}

// drillCoreHit prices Virtualizer.Open+Release on resident files,
// in-process, over the recorded step sequence.
func drillCoreHit(mc *model.Context, steps []int, per int) (ns, allocs float64, err error) {
	ctx := *mc
	ctx.StorageDir, ctx.MaxCacheBytes = "", 0
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := core.New(eng, l)
	l.Events = v
	if err := v.AddContext(&ctx, "DCL", nil); err != nil {
		return 0, 0, err
	}
	all := make([]int, ctx.Grid.NumOutputSteps())
	for i := range all {
		all[i] = i + 1
	}
	if err := v.Preload(ctx.Name, all); err != nil {
		return 0, 0, err
	}
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = ctx.Filename(s)
	}
	ns, allocs = timeCalls(drillRounds, per, func(i int) {
		name := names[i%len(names)]
		if _, e := v.Open("drill", ctx.Name, name); e != nil {
			err = e
		}
		if e := v.Release("drill", ctx.Name, name); e != nil {
			err = e
		}
	})
	return ns, allocs, err
}

// drillCoreMiss is the miss path without TCP: Virtualizer.Open on a
// missing file → the hub's ready event, with the real-time launcher and
// the workload's kind of storage area, one client. It returns the median
// open→event time.
func drillCoreMiss(mc *model.Context, steps []int, n int) (time.Duration, error) {
	ctx := *mc
	area := vfs.NewMem()
	l := &simulator.RealTimeLauncher{TimeScale: 1000}
	l.Write = func(c *model.Context, step int) error { return area.Create(c.Filename(step), c.OutputBytes) }
	v := core.New(des.NewWallClock(), l)
	l.Events = v
	if err := v.AddContext(&ctx, "DCL", area); err != nil {
		return 0, err
	}
	defer l.Wait()
	var h hist
	for i := 0; i < n; i++ {
		step := steps[i%len(steps)]
		name := ctx.Filename(step)
		sub := v.Hub().Subscribe(notify.Topic{Context: ctx.Name, Step: step})
		t0 := now()
		res, err := v.Open("drill", ctx.Name, name)
		if err != nil {
			sub.Close()
			return 0, err
		}
		if !res.Available {
			if ev := <-sub.C(); ev.Kind != notify.FileReady {
				sub.Close()
				return 0, fmt.Errorf("in-process miss on %s: %s", name, ev.Err)
			}
			h.add(now() - t0)
		}
		sub.Close()
		if err := v.Release("drill", ctx.Name, name); err != nil {
			return 0, err
		}
	}
	return time.Duration(h.quantile(0.5)), nil
}

// drillSched prices one job's trip through a zero-config scheduler that
// is always at its context cap: Submit (queued), SimDone of the job
// ahead, Next (admitted).
func drillSched(ctxName string, steps []int, perRestart, per int) float64 {
	s := sched.New(wall, sched.Config{})
	s.Register(ctxName, 1)
	req := func(i int) sched.Request {
		first := (steps[i%len(steps)]-1)/perRestart*perRestart + 1
		return sched.Request{Ctx: ctxName, First: first, Last: first + perRestart - 1, Parallelism: 1, Class: sched.Demand}
	}
	s.Submit(req(0)) // admitted: from here on one job is always running
	ns, _ := timeCalls(drillRounds, per, func(i int) {
		s.Submit(req(i + 1))
		s.SimDone(ctxName, 1)
		s.Next()
	})
	return ns
}

// drillCache prices one access (touch, or insert with eviction on a
// miss) of the DCL policy over the recorded sequence, keyed by file name
// as in core.
func drillCache(mc *model.Context, steps []int, capacity, per int) (float64, error) {
	pol, err := cache.NewPolicy("DCL", capacity)
	if err != nil {
		return 0, err
	}
	c := cache.New(pol, int64(capacity)*mc.OutputBytes)
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = mc.Filename(s)
	}
	access := func(i int) {
		k := i % len(steps)
		if !c.Touch(names[k]) {
			if _, e := c.InsertDiscard(names[k], mc.OutputBytes, mc.Grid.MissCost(steps[k])); e != nil {
				err = e
			}
		}
	}
	for i := range steps { // first pass fills the cache
		access(i)
	}
	ns, _ := timeCalls(drillRounds, per, access)
	return ns, err
}

// drillNotify prices Subscribe → Publish → receive → Close with fanout
// subscribers on the topic; the time is per published event.
func drillNotify(fanout, per int) float64 {
	hub := notify.NewHub()
	topic := notify.Topic{Context: "drill", Step: 1}
	subs := make([]*notify.Sub, fanout)
	ns, _ := timeCalls(drillRounds, per, func(int) {
		for i := range subs {
			subs[i] = hub.Subscribe(topic)
		}
		hub.Publish(notify.Event{Topic: topic, Kind: notify.FileReady})
		for _, s := range subs {
			<-s.C()
			s.Close()
		}
	})
	return ns
}

// nopEvents swallows simulation callbacks and signals each SimEnded.
type nopEvents struct{ ended chan struct{} }

func (nopEvents) SimStarted(int64)                    {}
func (nopEvents) StepProduced(int64, int)             {}
func (e nopEvents) SimEnded(int64, simulator.Outcome) { e.ended <- struct{}{} }

// drillLaunch is the launcher's own turnaround: Launch → SimEnded for
// one restart interval with no-op Write and Events — the goroutine and
// the timers, at sleeps scaled to nothing.
func drillLaunch(mc *model.Context, n int) time.Duration {
	ev := nopEvents{ended: make(chan struct{}, 1)}
	l := &simulator.RealTimeLauncher{TimeScale: 1000, Events: ev,
		Write: func(*model.Context, int) error { return nil }}
	var h hist
	for i := 0; i < n; i++ {
		t0 := now()
		l.Launch(mc, 1, stepsPerRun, 1)
		<-ev.ended
		h.add(now() - t0)
	}
	l.Wait()
	return time.Duration(h.quantile(0.5))
}

// drillVFS prices Create and Remove on the workload's kind of storage
// area at its file size.
func drillVFS(per int) (createNs, removeNs float64, err error) {
	area := vfs.NewMem()
	names := make([]string, drillRounds*per)
	for i := range names {
		names[i] = fmt.Sprintf("drill_out_%08d.nc", i)
	}
	createNs, _ = timeCalls(drillRounds, per, func(i int) {
		if e := area.Create(names[i], fileBytes); e != nil {
			err = e
		}
	})
	removeNs, _ = timeCalls(drillRounds, per, func(i int) {
		if e := area.Remove(names[i]); e != nil {
			err = e
		}
	})
	return createNs, removeNs, err
}

// drillDES prices one schedule+fire on the event engine.
func drillDES(events int) float64 {
	eng := des.NewEngine()
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.Schedule(time.Microsecond, tick)
		}
	}
	eng.Schedule(0, tick)
	t0 := now()
	eng.Run(0)
	return float64(now()-t0) / float64(events)
}

// fixedEstimator gives the prefetch agent the context's nominal
// performance model.
type fixedEstimator struct{ ctx *model.Context }

func (e fixedEstimator) AlphaEstimate() time.Duration    { return e.ctx.Alpha }
func (e fixedEstimator) TauEstimate(p int) time.Duration { return e.ctx.TauAt(p) }
func (e fixedEstimator) DefaultParallelism() int         { return e.ctx.DefaultParallelism }
func (e fixedEstimator) MaxParallelism() int             { return e.ctx.MaxParallelism }

// desSequences rebuilds access sequences shaped like des_multi's
// analyses: forward scans, a quarter of them backward, random starts.
func desSequences(seed int64, steps int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([][]int, desAnalyses)
	for i := range seqs {
		if float64(i) < 0.25*desAnalyses {
			seqs[i] = experiments.BackwardSeq(desAccesses+rng.Intn(steps-desAccesses), desAccesses)
		} else {
			seqs[i] = experiments.Forward(rng.Intn(steps-desAccesses)+1, desAccesses)
		}
	}
	return seqs
}

// drillPrefetch prices Agent.OnAccess over the analyses' sequences with
// nothing covered ahead, so every confirmed pattern plans launches.
func drillPrefetch(mc *model.Context, seqs [][]int, per int) float64 {
	agents := make([]*prefetch.Agent, len(seqs))
	for i := range agents {
		agents[i] = prefetch.NewAgent(mc.Grid, fixedEstimator{mc}, mc.SMax, mc.RampUp, mc.AlphaSmoothing)
	}
	ns, _ := timeCalls(drillRounds, per, func(i int) {
		a := i % len(seqs)
		seq := seqs[a]
		pos := (i / len(seqs)) % len(seq)
		if pos == 0 {
			agents[a].Reset()
		}
		step := seq[pos]
		at := time.Duration(i) * 100 * time.Millisecond
		agents[a].OnAccess(step, at, 100*time.Millisecond, func(int, int) int { return step })
	})
	return ns
}

// drillReplay prices the Fig. 5 inner loop: one access of an ECMWF-like
// trace replayed through DCL (tracks BenchmarkReplayECMWF).
func drillReplay(rounds int) (float64, error) {
	ctx := simulator.CacheEval()
	tr, err := trace.Generate(trace.ECMWF, trace.Config{
		NumSteps: ctx.Grid.NumOutputSteps(), NumAnalyses: 50, MinLen: 100, MaxLen: 400, Stride: 1, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	st, err := experiments.NewReplayState(ctx, "DCL")
	if err != nil {
		return 0, err
	}
	ns, _ := timeCalls(rounds, 1, func(int) {
		if _, e := experiments.ReplayInto(st, ctx, tr); e != nil {
			err = e
		}
	})
	return ns / float64(len(tr)), err
}
