// Command simfs-dv runs the SimFS Data Virtualizer daemon: it builds the
// per-context storage areas, runs the initial simulations (restart files +
// checksum registration) and serves DVLib clients over TCP.
//
// Usage:
//
//	simfs-dv -addr 127.0.0.1:7878 -data /tmp/simfs -preset demo
//	simfs-dv -preset cosmo -timescale 1000        # COSMO timings in ms
//	simfs-dv -config contexts.json                # custom contexts
//
// The JSON config is a list of context objects; see Context in the simfs
// package for the fields. When running with -config, SIGHUP re-reads the
// file and reconciles the live daemon against it (new contexts register,
// dropped ones drain and deregister).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"simfs"
	"simfs/internal/faults"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "listen address")
	data := flag.String("data", "./simfs-data", "base directory for storage areas")
	preset := flag.String("preset", "demo", "context preset: demo | cosmo | flash (ignored with -config)")
	config := flag.String("config", "", "JSON file with custom context definitions")
	policy := flag.String("policy", "DCL", "cache replacement scheme: LRU | LIRS | ARC | BCL | DCL")
	timescale := flag.Int("timescale", 1000, "divide simulated durations by this factor (1 = real time)")
	// The daemon deliberately defaults to the production scheduling
	// policy (coalescing + priority queueing + youngest-first demand
	// preemption), not the paper-exact zero config the library and
	// experiments default to: real multi-client traffic benefits from
	// merged restarts and demand-first draining (a demand open landing
	// on a queued prefetch job lifts it to demand class), and a blocking
	// demand miss outranks speculative work hard enough to evict it
	// (-sched-preempt off|youngest). Note for operators upgrading with
	// an existing -sched-nodes budget: that budget arms the preemption
	// default — pass `-sched-preempt off` to keep the old
	// wait-behind-prefetch behaviour.
	// `-sched-coalesce=false -sched-priorities=false -sched-preempt off`
	// restores the paper's inline rules bit for bit.
	coalesce := flag.Bool("sched-coalesce", true, "merge overlapping queued re-simulation requests into one job")
	priorities := flag.Bool("sched-priorities", true, "drain the launch queue in priority order (demand > guided > agent prefetch); false = paper-exact prefetch dropping")
	nodes := flag.Int("sched-nodes", 0, "global node budget shared by all contexts (0 = unlimited)")
	// Preemption only ever triggers under a -sched-nodes budget, so the
	// "youngest" default is inert until one is configured.
	preempt := flag.String("sched-preempt", "youngest", "kill a running agent prefetch for a node-blocked demand miss: off | youngest (needs -sched-nodes)")
	quantum := flag.Int("sched-quantum", 0, "per-client deficit-round-robin quantum in output steps inside a priority class (0 = pure FIFO)")
	// Failure ledger: relaunch a failed re-simulation at once, then
	// quarantine the interval (circuit breaker). Off by default — the
	// zero policy reproduces the fail-immediately behavior exactly.
	retryMax := flag.Int("retry-max", 0, "relaunch a failed re-simulation up to N times before quarantining its interval (0 = no retry, fail immediately)")
	retryCooldown := flag.Duration("retry-cooldown", 10*time.Second, "how long a quarantined interval refuses demand opens before a half-open probe")
	// Fault injection, for chaos-testing a deployment end to end. All
	// schedules are deterministic for a given -fault-seed.
	faultSeed := flag.Int64("fault-seed", 1, "seed for the probabilistic fault schedules")
	faultSimEvery := flag.Int("fault-sim-every", 0, "crash every n-th launched re-simulation halfway through (0 = off)")
	faultSimProb := flag.Float64("fault-sim-prob", 0, "crash each re-simulation with this probability at a seeded random step (0 = off)")
	faultStorageProb := flag.Float64("fault-storage-prob", 0, "fail each output-step write with this probability (0 = off)")
	faultConnCut := flag.Float64("fault-conn-cut", 0, "sever each client connection with this probability per I/O call (0 = off)")
	faultConnDelay := flag.Duration("fault-conn-delay", 0, "delay injected into client connection I/O (with -fault-conn-delay-prob)")
	faultConnDelayProb := flag.Float64("fault-conn-delay-prob", 0, "probability a connection I/O call is delayed by -fault-conn-delay")
	flag.Parse()

	ctxs, err := loadContexts(*preset, *config)
	if err != nil {
		log.Fatalf("simfs-dv: %v", err)
	}
	preemptPolicy, err := simfs.ParsePreemptPolicy(*preempt)
	if err != nil {
		log.Fatalf("simfs-dv: %v", err)
	}
	if *quantum < 0 {
		log.Fatalf("simfs-dv: -sched-quantum must be ≥ 0, got %d", *quantum)
	}
	schedCfg := simfs.SchedConfig{
		Coalesce: *coalesce, Priorities: *priorities, TotalNodes: *nodes,
		Preempt: preemptPolicy, DRRQuantum: *quantum,
	}
	d, err := simfs.NewScheduledDaemon(*data, *timescale, *policy, schedCfg, ctxs...)
	if err != nil {
		log.Fatalf("simfs-dv: %v", err)
	}
	// The server logs each reconfiguration with the client that made it:
	// the daemon's record of who steered it.
	d.Server.Logf = log.Printf
	if *retryMax > 0 {
		d.V.SetRetryPolicy(simfs.RetryPolicy{MaxAttempts: *retryMax, Cooldown: *retryCooldown})
		log.Printf("simfs-dv: re-simulation retry enabled (max %d attempts, quarantine cooldown %v)",
			*retryMax, *retryCooldown)
	}
	if *faultSimEvery > 0 || *faultSimProb > 0 {
		plan := faults.NewSimPlan().WithEvery(*faultSimEvery)
		if *faultSimProb > 0 {
			plan = plan.WithRandom(*faultSeed, *faultSimProb)
		}
		d.Launcher.FailAt = plan.FailAt
		log.Printf("simfs-dv: FAULT INJECTION: re-simulation crashes armed (every=%d prob=%g seed=%d)",
			*faultSimEvery, *faultSimProb, *faultSeed)
	}
	if *faultStorageProb > 0 {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(*faultSeed))
		orig := d.Launcher.Write
		d.Launcher.Write = func(ctx *simfs.Context, step int) error {
			mu.Lock()
			fail := rng.Float64() < *faultStorageProb
			mu.Unlock()
			if fail {
				return &faults.InjectedError{Op: "create", Name: ctx.Filename(step)}
			}
			return orig(ctx, step)
		}
		log.Printf("simfs-dv: FAULT INJECTION: storage write failures armed (prob=%g seed=%d)",
			*faultStorageProb, *faultSeed)
	}
	if *faultConnCut > 0 || *faultConnDelayProb > 0 {
		d.Server.WrapConn = (&faults.ConnPlan{
			Seed:      *faultSeed,
			CutProb:   *faultConnCut,
			Partial:   true,
			Delay:     *faultConnDelay,
			DelayProb: *faultConnDelayProb,
		}).Wrap
		log.Printf("simfs-dv: FAULT INJECTION: connection faults armed (cut=%g delay=%v@%g seed=%d)",
			*faultConnCut, *faultConnDelay, *faultConnDelayProb, *faultSeed)
	}
	for _, ctx := range ctxs {
		if err := d.RunInitialSimulation(ctx.Name); err != nil {
			log.Fatalf("simfs-dv: initial simulation of %s: %v", ctx.Name, err)
		}
		if n, err := d.V.RescanStorageArea(ctx.Name); err == nil && n > 0 {
			log.Printf("simfs-dv: context %s: recovered %d cached output steps", ctx.Name, n)
		}
		log.Printf("simfs-dv: context %s ready (Δd=%d Δr=%d steps=%d, storage %s)",
			ctx.Name, ctx.Grid.DeltaD, ctx.Grid.DeltaR, ctx.Grid.NumOutputSteps(), ctx.StorageDir)
	}
	if *config != "" {
		// SIGHUP re-reads the config file and reconciles the live daemon
		// against it: new contexts register (with their initial
		// simulation), dropped ones drain and deregister. Presets are
		// static, so the handler only arms with -config.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				next, err := loadContexts(*preset, *config)
				if err != nil {
					log.Printf("simfs-dv: reload: %v (keeping current contexts)", err)
					continue
				}
				added, removed, err := d.SyncContexts(next, *policy, true)
				if err != nil {
					log.Printf("simfs-dv: reload: %v", err)
				}
				log.Printf("simfs-dv: reload: %d contexts added %v, %d removed %v",
					len(added), added, len(removed), removed)
			}
		}()
	}
	log.Printf("simfs-dv: serving on %s (policy %s, timescale 1/%d, sched coalesce=%v priorities=%v nodes=%d preempt=%s quantum=%d)",
		*addr, *policy, *timescale, schedCfg.Coalesce, schedCfg.Priorities, schedCfg.TotalNodes,
		schedCfg.Preempt, schedCfg.DRRQuantum)
	if err := d.ListenAndServe(*addr); err != nil {
		log.Fatalf("simfs-dv: %v", err)
	}
}

func loadContexts(preset, config string) ([]*simfs.Context, error) {
	if config != "" {
		raw, err := os.ReadFile(config)
		if err != nil {
			return nil, err
		}
		var ctxs []*simfs.Context
		if err := json.Unmarshal(raw, &ctxs); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", config, err)
		}
		if len(ctxs) == 0 {
			return nil, fmt.Errorf("%s defines no contexts", config)
		}
		return ctxs, nil
	}
	switch preset {
	case "demo":
		return []*simfs.Context{demoContext()}, nil
	case "cosmo":
		return []*simfs.Context{simfs.CosmoScaling()}, nil
	case "flash":
		return []*simfs.Context{simfs.Flash()}, nil
	}
	return nil, fmt.Errorf("unknown preset %q", preset)
}

// demoContext is a small virtualized simulation: 128 output steps, restart
// every 8, 4 KiB files — instant to play with.
func demoContext() *simfs.Context {
	return &simfs.Context{
		Name:               "demo",
		Grid:               simfs.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 128},
		OutputBytes:        4096,
		RestartBytes:       8192,
		MaxCacheBytes:      64 * 4096, // half the output volume
		Tau:                2 * time.Second,
		Alpha:              5 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     4,
		SMax:               8,
	}
}
