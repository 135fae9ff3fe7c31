package simfs

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the index). Each benchmark runs the full
// experiment per iteration and reports headline values as custom metrics,
// so `go test -bench=. -benchmem` both times the harness and records the
// reproduced numbers. cmd/simfs-bench prints the full row/series sets.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simfs/internal/cache"
	"simfs/internal/core"
	"simfs/internal/costmodel"
	"simfs/internal/des"
	"simfs/internal/dvlib"
	"simfs/internal/experiments"
	"simfs/internal/fed"
	"simfs/internal/model"
	"simfs/internal/sched"
	"simfs/internal/server"
	"simfs/internal/simulator"
	"simfs/internal/trace"
	"simfs/internal/vfs"
)

// at extracts a median from a metrics table, failing the benchmark on a
// missing cell.
func at(b *testing.B, get func() (float64, bool), what string) float64 {
	b.Helper()
	v, ok := get()
	if !ok {
		b.Fatalf("missing cell: %s", what)
	}
	return v
}

// BenchmarkFig01_AggregatedCost regenerates Fig. 1 (aggregated analysis
// cost over the availability period) and reports the 5-year costs.
func BenchmarkFig01_AggregatedCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig01(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		ondisk := at(b, func() (float64, bool) { s, ok := tab.Series("on-disk").At("5y"); return s.Median, ok }, "on-disk@5y")
		simfsCost := at(b, func() (float64, bool) { s, ok := tab.Series("SimFS").At("5y"); return s.Median, ok }, "SimFS@5y")
		b.ReportMetric(ondisk, "ondisk-5y-k$")
		b.ReportMetric(simfsCost, "simfs-5y-k$")
	}
}

// BenchmarkFig05_ReplacementSchemes regenerates Fig. 5 (replacement-scheme
// comparison) with a reduced repetition count and reports DCL's and LRU's
// re-simulated steps on the ECMWF-like trace.
func BenchmarkFig05_ReplacementSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig05()
		cfg.Reps = 3
		steps, _, err := experiments.Fig05(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dcl := at(b, func() (float64, bool) { s, ok := steps.Series("DCL").At("ECMWF"); return s.Median, ok }, "DCL@ECMWF")
		lru := at(b, func() (float64, bool) { s, ok := steps.Series("LRU").At("ECMWF"); return s.Median, ok }, "LRU@ECMWF")
		b.ReportMetric(dcl, "dcl-ecmwf-steps")
		b.ReportMetric(lru, "lru-ecmwf-steps")
	}
}

// BenchmarkFig12_CostVsAvailability regenerates Fig. 12.
func BenchmarkFig12_CostVsAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig12(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		v := at(b, func() (float64, bool) { s, ok := tab.Series("SimFS(25%) Δr=8h").At("5y"); return s.Median, ok }, "simfs@5y")
		b.ReportMetric(v, "simfs25-dr8h-5y-k$")
	}
}

// BenchmarkFig13_CostVsOverlap regenerates Fig. 13.
func BenchmarkFig13_CostVsOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig13(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		lo := at(b, func() (float64, bool) { s, ok := tab.Series("SimFS(25%) Δr=8h").At("0"); return s.Median, ok }, "overlap 0")
		hi := at(b, func() (float64, bool) { s, ok := tab.Series("SimFS(25%) Δr=8h").At("100"); return s.Median, ok }, "overlap 100")
		b.ReportMetric(lo, "simfs-overlap0-k$")
		b.ReportMetric(hi, "simfs-overlap100-k$")
	}
}

// BenchmarkFig14_CostVsNumAnalyses regenerates Fig. 14 and reports the
// in-situ/SimFS crossover region endpoints.
func BenchmarkFig14_CostVsNumAnalyses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig14(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		at5 := at(b, func() (float64, bool) { s, ok := tab.Series("in-situ").At("5"); return s.Median, ok }, "insitu@5")
		at125 := at(b, func() (float64, bool) { s, ok := tab.Series("in-situ").At("125"); return s.Median, ok }, "insitu@125")
		b.ReportMetric(at5, "insitu-5-k$")
		b.ReportMetric(at125, "insitu-125-k$")
	}
}

// BenchmarkFig15a_Heatmap regenerates the cost-effectiveness heatmap.
func BenchmarkFig15a_Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.Fig15a(experiments.DefaultCostWorkload())
		if err != nil {
			b.Fatal(err)
		}
		v, ok := h.At("0.15", "2.0")
		if !ok {
			b.Fatal("missing heatmap cell")
		}
		b.ReportMetric(v, "ratio-mid")
	}
}

// BenchmarkFig15b_CostOverSpace regenerates Fig. 15b.
func BenchmarkFig15b_CostOverSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		costTab, _, err := experiments.Fig15bc(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		xs := costTab.Series("cache 25%").Xs()
		if len(xs) != 4 {
			b.Fatalf("want 4 Δr points, got %d", len(xs))
		}
	}
}

// BenchmarkFig15c_TimeOverSpace regenerates Fig. 15c.
func BenchmarkFig15c_TimeOverSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, timeTab, err := experiments.Fig15bc(experiments.DefaultCostWorkload(), costmodel.Azure)
		if err != nil {
			b.Fatal(err)
		}
		xs := timeTab.Series("cache 50%").Xs()
		v, ok := timeTab.Series("cache 50%").At(xs[0])
		if !ok {
			b.Fatal("missing cell")
		}
		b.ReportMetric(v.Median, "resim-hours-dr4h")
	}
}

// BenchmarkFig16_CosmoScaling regenerates the COSMO strong-scaling figure
// and reports the forward speedup at smax=8.
func BenchmarkFig16_CosmoScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		fwd := at(b, func() (float64, bool) { s, ok := tab.Series("Forward").At("8"); return s.Median, ok }, "fwd@8")
		single := at(b, func() (float64, bool) {
			s, ok := tab.Series("Full Forward Resimulation").At("8")
			return s.Median, ok
		}, "single@8")
		b.ReportMetric(single/fwd, "speedup-smax8")
	}
}

// BenchmarkFig17_CosmoLatency regenerates the COSMO restart-latency sweep.
func BenchmarkFig17_CosmoLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) != 3 {
			b.Fatalf("want 3 analysis lengths, got %d", len(tabs))
		}
		simfsT := at(b, func() (float64, bool) { s, ok := tabs[0].Series("SimFS").At("600"); return s.Median, ok }, "simfs@600")
		single := at(b, func() (float64, bool) { s, ok := tabs[0].Series("Tsingle").At("600"); return s.Median, ok }, "tsingle@600")
		b.ReportMetric(simfsT/single, "overhead-m72-a600")
	}
}

// BenchmarkFig18_FlashScaling regenerates the FLASH strong-scaling figure.
func BenchmarkFig18_FlashScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig18()
		if err != nil {
			b.Fatal(err)
		}
		fwd := at(b, func() (float64, bool) { s, ok := tab.Series("Forward").At("16"); return s.Median, ok }, "fwd@16")
		single := at(b, func() (float64, bool) {
			s, ok := tab.Series("Full Forward Resimulation").At("16")
			return s.Median, ok
		}, "single@16")
		b.ReportMetric(single/fwd, "speedup-smax16")
	}
}

// BenchmarkFig19_FlashLatency regenerates the FLASH restart-latency sweep.
func BenchmarkFig19_FlashLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig19()
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) != 3 {
			b.Fatalf("want 3 analysis lengths, got %d", len(tabs))
		}
	}
}

// BenchmarkAblationPrefetchStrategies quantifies the prefetching design
// (none → masking → bandwidth matching).
func BenchmarkAblationPrefetchStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPrefetchStrategies(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDoubling quantifies the s-doubling ramp-up.
func BenchmarkAblationDoubling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDoubling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEMA quantifies αsim-estimation smoothing under noise.
func BenchmarkAblationEMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEMA(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrates ------------------------------------

// BenchmarkPolicy measures the per-access cost of each replacement scheme
// on a Zipf-ish reuse pattern with interleaved evictions.
func BenchmarkPolicy(b *testing.B) {
	for _, name := range cache.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			pol, err := cache.NewPolicy(name, 1024)
			if err != nil {
				b.Fatal(err)
			}
			c := cache.NewStepCache(pol, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * i) % 4096 // quadratic probe ≈ skewed reuse
				if !c.Touch(k) {
					if _, err := c.InsertDiscard(k, 1, i%12+1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPolicyAtCapacity measures the per-access cost of each scheme
// with the cache full and nearly every access an eviction: uniform keys
// over four times the capacity, costs 1–8, integer keys as in core. The
// quadratic probe of BenchmarkPolicy touches a few hundred keys and hardly
// evicts; this is the one that shows work growing with the cache (BCL/DCL
// scanned it for a victim, and DCL walked its eviction history).
func BenchmarkPolicyAtCapacity(b *testing.B) {
	const capacity = 1024
	for _, name := range cache.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			pol, err := cache.NewPolicy(name, capacity)
			if err != nil {
				b.Fatal(err)
			}
			c := cache.NewStepCache(pol, capacity)
			rng := rand.New(rand.NewSource(1))
			access := func() {
				k := rng.Intn(4 * capacity)
				if !c.Touch(k) {
					if _, err := c.InsertDiscard(k, 1, k%8+1); err != nil {
						b.Fatal(err)
					}
				}
			}
			for i := 0; i < 8*capacity; i++ { // fill, and let DCL's history build
				access()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access()
			}
		})
	}
}

// BenchmarkDESEngine measures raw event throughput.
func BenchmarkDESEngine(b *testing.B) {
	eng := des.NewEngine()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, reschedule)
		}
	}
	eng.Schedule(0, reschedule)
	b.ResetTimer()
	eng.Run(0)
	if n < b.N {
		b.Fatalf("processed %d of %d events", n, b.N)
	}
}

// BenchmarkVirtualizerOpenHit measures the DV's hot open path.
func BenchmarkVirtualizerOpenHit(b *testing.B) {
	ctx := &model.Context{
		Name: "bench", Grid: model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 4096},
		OutputBytes: 1, Tau: time.Second, Alpha: time.Second,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	ctx.ApplyDefaults()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := core.New(eng, l)
	l.Events = v
	if err := v.AddContext(ctx, "DCL", nil); err != nil {
		b.Fatal(err)
	}
	steps := make([]int, ctx.Grid.NumOutputSteps())
	names := make([]string, len(steps))
	for i := range steps {
		steps[i] = i + 1
		names[i] = ctx.Filename(i + 1)
	}
	if err := v.Preload("bench", steps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if _, err := v.Open("c", "bench", name); err != nil {
			b.Fatal(err)
		}
		if err := v.Release("c", "bench", name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirtualizerMultiClient measures aggregate open/release
// throughput of concurrent clients spread over a varying number of
// contexts. With the sharded Virtualizer each context is an independent
// lock domain, so aggregate ops/sec grows as the same client population
// spreads over more contexts; contexts=1 is the single-lock baseline.
// The reported lock-contended metric shows the contention collapsing.
//
// The client fan-out rides experiments.RunCells — the same worker pool
// the figure runners use — with one cell per client doing b.N operations,
// so the stress harness and the experiment harness share one machinery.
func BenchmarkVirtualizerMultiClient(b *testing.B) {
	const clients = 8
	for _, nctx := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("contexts=%d", nctx), func(b *testing.B) {
			launcher := &simulator.RealTimeLauncher{
				Write: func(*model.Context, int) error { return nil },
			}
			v := core.New(des.NewWallClock(), launcher)
			launcher.Events = v
			names := make([]string, nctx)
			files := make([][]string, nctx)
			for i := 0; i < nctx; i++ {
				ctx := &model.Context{
					Name:        fmt.Sprintf("shard%d", i),
					Grid:        model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 4096},
					OutputBytes: 1, Tau: time.Second, Alpha: time.Second,
					DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
				}
				ctx.ApplyDefaults()
				if err := v.AddContext(ctx, "DCL", nil); err != nil {
					b.Fatal(err)
				}
				names[i] = ctx.Name
				steps := make([]int, ctx.Grid.NumOutputSteps())
				files[i] = make([]string, len(steps))
				for s := range steps {
					steps[s] = s + 1
					files[i][s] = ctx.Filename(s + 1)
				}
				if err := v.Preload(ctx.Name, steps); err != nil {
					b.Fatal(err)
				}
			}
			// b.N total operations split across the client cells, so the
			// framework ns/op stays per-operation (benchstat-comparable
			// with the pre-RunCells version of this bench).
			per := (b.N + clients - 1) / clients
			b.ResetTimer()
			if _, err := experiments.RunCells(clients, clients, func(c int) (struct{}, error) {
				me := c % nctx
				name, fs := names[me], files[me]
				cli := fmt.Sprintf("cli%d", c)
				for i := 0; i < per; i++ {
					f := fs[i%len(fs)]
					if _, err := v.Open(cli, name, f); err != nil {
						return struct{}{}, err
					}
					if err := v.Release(cli, name, f); err != nil {
						return struct{}{}, err
					}
				}
				return struct{}{}, nil
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			ls := v.TotalLockStats()
			b.ReportMetric(float64(clients)*float64(per)/b.Elapsed().Seconds(), "ops/sec")
			if ls.Acquisitions > 0 {
				b.ReportMetric(100*float64(ls.Contended)/float64(ls.Acquisitions), "%lock-contended")
			}
		})
	}
}

// BenchmarkFederationTCP is the scale-out figure: aggregate roundtrips
// per second of a contended multi-client workload against 1, 2 and 4
// daemons behind the consistent-hash router, plus the direct-dial
// baseline that prices the router hop at daemons=1.
//
// The workload is deliberately miss-heavy: every open demands a fresh
// re-simulation (forward sweep over never-produced steps), and each
// daemon runs a 2-node scheduler budget, so aggregate throughput is
// bounded by simulation slots — the resource federation multiplies.
// Re-simulations are wall-clock launcher sleeps (Tau/Alpha scaled to
// ~2 ms), not CPU, so the figure measures scale-out, not core count.
func BenchmarkFederationTCP(b *testing.B) {
	b.Run("daemons=1/mode=direct", func(b *testing.B) { benchFederationTCP(b, 1, false) })
	b.Run("daemons=1/mode=router", func(b *testing.B) { benchFederationTCP(b, 1, true) })
	b.Run("daemons=2/mode=router", func(b *testing.B) { benchFederationTCP(b, 2, true) })
	b.Run("daemons=4/mode=router", func(b *testing.B) { benchFederationTCP(b, 4, true) })
}

func benchFederationTCP(b *testing.B, daemons int, viaRouter bool) {
	const (
		clients   = 8
		timeScale = 50 // Tau/Alpha 100ms → 2ms wall-clock per sim phase
	)
	newCtx := func(name string) *model.Context {
		return &model.Context{
			Name:        name,
			Grid:        model.Grid{DeltaD: 1, DeltaR: 1, Timesteps: 1024},
			OutputBytes: 64, RestartBytes: 64,
			MaxCacheBytes:      32 * 64, // wrap-around sweeps stay misses
			Tau:                100 * time.Millisecond,
			Alpha:              100 * time.Millisecond,
			DefaultParallelism: 1, MaxParallelism: 1, SMax: 1, NoPrefetch: true,
		}
	}
	stacks := make([]*server.Stack, daemons)
	addrs := make([]string, daemons)
	for d := range stacks {
		st, err := server.NewScheduledStack(b.TempDir(), timeScale, "DCL",
			sched.Config{TotalNodes: 2}, newCtx(fmt.Sprintf("fedseed%d", d)))
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Server.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		go st.Server.Serve()
		defer func(st *server.Stack) {
			st.Close()
			st.Launcher.Wait()
		}(st)
		stacks[d], addrs[d] = st, st.Server.Addr()
	}

	ring := fed.NewRing(0, addrs...)
	byAddr := map[string]int{}
	for d, a := range addrs {
		byAddr[a] = d
	}
	// One context per client, registered on its ring owner — the same
	// placement the router will compute per request. Candidate names are
	// scanned until each daemon holds an equal share, so the scaling
	// figure measures daemon capacity rather than the small-sample luck
	// of 8 specific names on the ring (real deployments hold many
	// contexts, where the ring's balance averages out).
	quota := clients / daemons
	ctxNames := make([]string, 0, clients)
	held := make([]int, daemons)
	for i := 0; len(ctxNames) < clients; i++ {
		ctx := newCtx(fmt.Sprintf("fedctx%d", i))
		d := byAddr[ring.Owner(ctx.Name)]
		if held[d] >= quota {
			continue
		}
		held[d]++
		ctxNames = append(ctxNames, ctx.Name)
		if err := stacks[d].RegisterContext(ctx, "DCL", true); err != nil {
			b.Fatal(err)
		}
	}

	target := addrs[0]
	if viaRouter {
		r := fed.NewRouter(addrs, 0, nil)
		if err := r.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		go r.Serve()
		defer r.Close()
		target = r.Addr()
	}

	conns := make([]*dvlib.Context, clients)
	for c := range conns {
		cli, err := dvlib.Dial(target, fmt.Sprintf("fedbench%d", c))
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		actx, err := cli.Init(ctxNames[c])
		if err != nil {
			b.Fatal(err)
		}
		conns[c] = actx
	}

	// b.N total demand roundtrips split across the clients (ns/op stays
	// per roundtrip); each client sweeps its own context forward, so
	// every open demands a re-simulation.
	per := (b.N + clients - 1) / clients
	b.ResetTimer()
	if _, err := experiments.RunCells(clients, clients, func(c int) (struct{}, error) {
		actx := conns[c]
		for i := 0; i < per; i++ {
			file := actx.Filename(i%1024 + 1)
			res, err := actx.Open(file)
			if err != nil {
				return struct{}{}, err
			}
			if !res.Available {
				if err := actx.WaitAvailable(file); err != nil {
					return struct{}{}, err
				}
			}
			if err := actx.Close(file); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(clients)*float64(per)/b.Elapsed().Seconds(), "roundtrips/sec")
}

// BenchmarkReplayECMWF measures trace-replay throughput on the ECMWF-like
// workload (the inner loop of the caching study and cost models).
func BenchmarkReplayECMWF(b *testing.B) {
	ctx := simulator.CacheEval()
	tr, err := trace.Generate(trace.ECMWF, trace.Config{
		NumSteps: ctx.Grid.NumOutputSteps(), NumAnalyses: 50,
		MinLen: 100, MaxLen: 400, Stride: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The rep loops reuse one ReplayState across replays (ReplayInto), so
	// the policy/cache construction is out of the measured hot path.
	st, err := experiments.NewReplayState(ctx, "DCL")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReplayInto(st, ctx, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr)), "accesses/op")
}

// TestReplayECMWFAllocFree pins BenchmarkReplayECMWF's allocs/op at
// zero: with the worker-pinned ReplayState (every replacement scheme's
// nodes live in its step table, whose chunks a reset keeps) warmed by one
// replay, further replays of the same trace allocate nothing. Every
// policy is pinned — a regression in any scheme's node reuse fails here
// before it shows up as MB/op in the benchmark. Trace regeneration is pinned separately: the worker-pinned
// rng and buffer leave only the ECMWF pattern's rank permutation and
// Zipf sampler (2 allocations).
func TestReplayECMWFAllocFree(t *testing.T) {
	ctx := simulator.CacheEval()
	cfg := trace.Config{
		NumSteps: ctx.Grid.NumOutputSteps(), NumAnalyses: 50,
		MinLen: 100, MaxLen: 400, Stride: 1, Seed: 1,
	}
	for _, policy := range cache.PolicyNames() {
		st, err := experiments.NewReplayState(ctx, policy)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := st.GenerateTrace(trace.ECMWF, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replay := func() {
			if _, err := experiments.ReplayInto(st, ctx, tr); err != nil {
				t.Fatal(err)
			}
		}
		replay() // warm the step table's chunks
		if allocs := testing.AllocsPerRun(3, replay); allocs > 0 {
			t.Errorf("%s: %v allocs per warmed replay, want 0", policy, allocs)
		}
	}
	// Regeneration on a warmed state: only the ECMWF pattern's own
	// permutation + Zipf sampler remain.
	st, err := experiments.NewReplayState(ctx, "DCL")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GenerateTrace(trace.ECMWF, cfg); err != nil {
		t.Fatal(err)
	}
	regen := func() {
		if _, err := st.GenerateTrace(trace.ECMWF, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, regen); allocs > 2 {
		t.Errorf("trace regeneration: %v allocs, want ≤ 2 (perm + zipf)", allocs)
	}
}

// BenchmarkProtocolRoundTrip measures one open+release cycle over a real
// TCP loopback connection to the daemon.
func BenchmarkProtocolRoundTrip(b *testing.B) {
	actx := wireClient(b)
	// Warm one file so the loop measures pure hit round trips.
	file := actx.Filename(1)
	if _, err := actx.Open(file); err != nil {
		b.Fatal(err)
	}
	if err := actx.WaitAvailable(file); err != nil {
		b.Fatal(err)
	}
	if err := actx.Close(file); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := actx.Open(file); err != nil {
			b.Fatal(err)
		}
		if err := actx.Close(file); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolPipelined measures the warm-hit round trip the way the
// hit_pipelined workload drives it, per open+release pair: windows of 16
// OpenAsync, their Waits, 16 ReleaseAsync and their Waits, of resident
// files, over loopback TCP. `make profile-hit` profiles it.
func BenchmarkProtocolPipelined(b *testing.B) {
	const window = 16
	actx := wireClient(b)
	var files [window]string
	// No constant stride, as in TestHitPathAllocBudget: a trajectory the
	// prefetch agent recognizes would time core's coverage scan.
	for i, step := range [window]int{7, 29, 3, 41, 18, 60, 11, 35, 2, 52, 24, 46, 9, 33, 15, 57} {
		files[i] = actx.Filename(step)
		if _, err := actx.Open(files[i]); err != nil {
			b.Fatal(err)
		}
		if err := actx.WaitAvailable(files[i]); err != nil {
			b.Fatal(err)
		}
		if err := actx.Close(files[i]); err != nil {
			b.Fatal(err)
		}
	}
	var opens [window]*dvlib.OpenCall
	var rels [window]*dvlib.ReleaseCall
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		n := min(window, b.N-done)
		var err error
		for i, f := range files[:n] {
			if opens[i], err = actx.OpenAsync(f); err != nil {
				b.Fatal(err)
			}
		}
		for _, oc := range opens[:n] {
			if res, err := oc.Wait(); err != nil || !res.Available {
				b.Fatalf("open = %+v, %v; want a hit", res, err)
			}
		}
		for i, f := range files[:n] {
			if rels[i], err = actx.ReleaseAsync(f); err != nil {
				b.Fatal(err)
			}
		}
		for _, rc := range rels[:n] {
			if err := rc.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMissLoop measures the read of a missing file the way the
// miss_resim workload drives it, per read: Open, which misses, the
// WaitAvailable on its notice, Close — the loop of TestMissPathAllocBudget
// (internal/server). Each read takes a fresh restart interval of 64 of a
// context whose cache holds two, so every open misses; the storage area
// is in memory, and the simulations run at TimeScale 1000 with model
// terms that round to nothing, so what is timed is the system's own
// overhead. `make profile-miss` profiles it.
func BenchmarkMissLoop(b *testing.B) {
	mctx := &model.Context{
		Name: "miss", Grid: model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 512},
		OutputBytes: 64, RestartBytes: 64, MaxCacheBytes: 16 * 64,
		Tau: time.Microsecond, Alpha: time.Microsecond,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	area := vfs.NewMem()
	launcher := &simulator.Launcher{TimeScale: 1000}
	v := core.New(des.NewWallClock(), launcher)
	launcher.Events = v
	launcher.Write = func(ctx *model.Context, step int) error { return area.Create(ctx.Filename(step), ctx.OutputBytes) }
	if err := v.AddContext(mctx, "DCL", area); err != nil {
		b.Fatal(err)
	}
	srv := server.New(v, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() {
		srv.Close()
		launcher.Wait()
	})
	c, err := dvlib.Dial(srv.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	actx, err := c.Init(mctx.Name)
	if err != nil {
		b.Fatal(err)
	}
	var files [64]string // named up front: the client formats a name per call
	for i := range files {
		files[i] = actx.Filename(8*i + 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file := files[i%len(files)]
		if res, err := actx.Open(file); err != nil || res.Available {
			b.Fatalf("open %s = %+v, %v; want a miss", file, res, err)
		}
		if err := actx.WaitAvailable(file); err != nil {
			b.Fatal(err)
		}
		if err := actx.Close(file); err != nil {
			b.Fatal(err)
		}
	}
}

// wireClient serves a 1024-step context without prefetching from a
// daemon on loopback TCP and returns a client's handle on it.
func wireClient(b *testing.B) *dvlib.Context {
	ctx := &model.Context{
		Name: "wire", Grid: model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 1024},
		OutputBytes: 64, RestartBytes: 64,
		Tau: time.Millisecond, Alpha: time.Millisecond,
		DefaultParallelism: 1, MaxParallelism: 1, SMax: 4, NoPrefetch: true,
	}
	st, err := server.NewStack(b.TempDir(), 1, "DCL", ctx)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Server.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go st.Server.Serve()
	b.Cleanup(func() {
		st.Close()
		st.Launcher.Wait()
	})
	c, err := dvlib.Dial(st.Server.Addr(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	actx, err := c.Init("wire")
	if err != nil {
		b.Fatal(err)
	}
	return actx
}
