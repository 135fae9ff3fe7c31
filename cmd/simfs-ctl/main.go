// Command simfs-ctl is the SimFS control utility: it inspects and manages
// a running DV daemon over the versioned control-plane API — no restart
// needed for any of it.
//
// Inspection:
//
//	simfs-ctl -addr 127.0.0.1:7878 contexts
//	simfs-ctl -addr ... -context demo info
//	simfs-ctl -addr ... -context demo stats
//	simfs-ctl -addr ... -context demo estwait demo_out_00000042.nc
//	simfs-ctl -addr ... -context demo bitrep  demo_out_00000042.nc
//	simfs-ctl -addr ... -context demo rescan
//
// Live reconfiguration (control plane):
//
//	simfs-ctl sched-get
//	simfs-ctl sched-set -coalesce -priorities -nodes 16
//	simfs-ctl cache-policy-set demo LIRS
//	simfs-ctl ctx-register -config ctx.json -policy DCL -initial-sim
//	simfs-ctl drain demo
//	simfs-ctl resume demo
//	simfs-ctl ctx-deregister demo
//
// Closed-loop control (attach an autoscale controller to a live daemon):
//
//	simfs-ctl autoscale -tick 5s -budget 8:32 -preempt youngest -cache-policies DCL,LRU
//
// sched-set flags are partial: only the flags given on the command line
// change; everything else keeps its current value. ctx-deregister
// requires a drained, quiescent context (the daemon answers "busy"
// otherwise — drain first and retry once the workload has emptied).
// Daemon errors are printed with their structured code, e.g.
// "no_such_context".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"simfs"
	"simfs/internal/autoscale"
	"simfs/internal/des"
	"simfs/internal/metrics"
	"simfs/internal/sched"
)

var (
	addr    = flag.String("addr", "127.0.0.1:7878", "daemon address")
	ctxName = flag.String("context", "", "simulation context name")
	timeout = flag.Duration("timeout", 30*time.Second, "per-command deadline")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	cx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c, err := simfs.DialContext(cx, *addr, "simfs-ctl")
	if err != nil {
		log.Fatalf("simfs-ctl: %v", err)
	}
	defer c.Close()
	admin := c.Admin()

	switch args[0] {
	case "proto":
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "protocol version\t%d\n", c.ProtoVersion())
		fmt.Fprintf(w, "daemon capabilities\t%s\n", strings.Join(c.Capabilities(), " "))
		w.Flush()

	case "contexts":
		names, err := c.Contexts()
		check(err)
		for _, n := range names {
			fmt.Println(n)
		}

	case "info":
		ctx := open(c, *ctxName)
		info := ctx.Info()
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "name\t%s\nstorage dir\t%s\nfile pattern\t%s########%s\n",
			info.Name, info.StorageDir, info.FilePrefix, info.FileSuffix)
		fmt.Fprintf(w, "delta d\t%d\ndelta r\t%d\ntimesteps\t%d\noutput bytes\t%d\n",
			info.DeltaD, info.DeltaR, info.Timesteps, info.OutputBytes)
		fmt.Fprintf(w, "cache policy\t%s\ndraining\t%v\n", info.Policy, info.Draining)
		w.Flush()

	case "stats":
		ctx := open(c, *ctxName)
		st, err := ctx.Stats()
		check(err)
		printStats(os.Stdout, st)

	case "health":
		// The fault-tolerance view of one context: failure/retry/
		// quarantine counters from the stats frame, compact enough to
		// watch in a loop during an incident.
		ctx := open(c, *ctxName)
		st, err := ctx.Stats()
		check(err)
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "sim failures\t%d\nsched retries\t%d\nsched quarantined\t%d\n",
			st.Failures, st.Retries, st.Quarantined)
		fmt.Fprintf(w, "restarts\t%d\nkills\t%d\ndropped prefetch\t%d\ndraining\t%v\n",
			st.Restarts, st.Kills, st.DroppedPrefetch, st.Draining)
		w.Flush()
		printOpLatencies(os.Stdout, st.Ops)
		if st.Quarantined > 0 {
			fmt.Println("\nintervals have been quarantined; once the underlying fault is fixed,")
			fmt.Println("`simfs-ctl quarantine-reset` re-admits them before the cooldown elapses")
		}

	case "autoscale":
		runAutoscale(c, args[1:])

	case "peers":
		// Federation links: a router's ring members. A daemon has none.
		infos, err := admin.Peers(cx)
		check(err)
		if len(infos) == 0 {
			fmt.Println("not federated (no peers)")
			break
		}
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "addr\trole\tconnected\n")
		for _, p := range infos {
			fmt.Fprintf(w, "%s\t%s\t%v\n", p.Addr, p.Role, p.Connected)
		}
		w.Flush()

	case "quarantine-reset":
		// Optional context argument; no argument resets every context.
		name := ""
		if len(args) > 1 {
			name = args[1]
		}
		n, err := admin.ResetQuarantine(cx, name)
		check(err)
		scope := name
		if scope == "" {
			scope = "all contexts"
		}
		fmt.Printf("quarantine reset on %s: %d quarantined interval(s) released\n", scope, n)

	case "estwait":
		needArgs(args, 1, "<file>")
		ctx := open(c, *ctxName)
		w, err := ctx.EstWait(args[1])
		check(err)
		fmt.Printf("%s: estimated wait %v\n", args[1], w)

	case "bitrep":
		needArgs(args, 1, "<file>")
		ctx := open(c, *ctxName)
		same, err := ctx.Bitrep(args[1])
		check(err)
		if same {
			fmt.Printf("%s: bitwise identical to the original\n", args[1])
		} else {
			fmt.Printf("%s: DIFFERS from the original simulation output\n", args[1])
		}

	case "rescan":
		ctx := open(c, *ctxName)
		n, err := ctx.Rescan()
		check(err)
		fmt.Printf("recovered %d output steps from the storage area\n", n)

	case "sched-get":
		cfg, err := admin.SchedConfig(cx)
		check(err)
		printSched(cfg)

	case "sched-set":
		fs := flag.NewFlagSet("sched-set", flag.ExitOnError)
		coalesce := fs.Bool("coalesce", false, "merge overlapping queued re-simulation requests into one job")
		priorities := fs.Bool("priorities", false, "drain the launch queue in priority order (demand > guided > agent)")
		nodes := fs.Int("nodes", 0, "global node budget shared by all contexts (0 = unlimited)")
		var preempt simfs.PreemptPolicy
		fs.TextVar(&preempt, "preempt", preempt, "preemption victim policy: off | youngest")
		quantum := fs.Int("quantum", 0, "per-client deficit-round-robin quantum in output steps (0 = pure FIFO)")
		fs.Parse(args[1:])
		// Partial update: only the flags the operator actually set travel.
		var upd simfs.SchedUpdate
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "coalesce":
				upd.Coalesce = coalesce
			case "priorities":
				upd.Priorities = priorities
			case "nodes":
				upd.TotalNodes = nodes
			case "preempt":
				upd.Preempt = &preempt
			case "quantum":
				upd.DRRQuantum = quantum
			}
		})
		cfg, err := admin.UpdateSchedConfig(cx, upd)
		check(err)
		fmt.Println("scheduler reconfigured:")
		printSched(cfg)

	case "cache-policy-set":
		needArgs(args, 2, "<context> <policy>")
		check(admin.SetCachePolicy(cx, args[1], args[2]))
		fmt.Printf("context %s now runs the %s replacement scheme (rebuilt from the resident set)\n", args[1], args[2])

	case "ctx-register":
		fs := flag.NewFlagSet("ctx-register", flag.ExitOnError)
		config := fs.String("config", "", "JSON file with one context definition (required)")
		policy := fs.String("policy", "DCL", "cache replacement scheme: LRU | LIRS | ARC | BCL | DCL")
		initial := fs.Bool("initial-sim", false, "run the initial simulation (restart files + checksums) before serving")
		fs.Parse(args[1:])
		if *config == "" {
			log.Fatal("simfs-ctl: ctx-register requires -config <file.json>")
		}
		raw, err := os.ReadFile(*config)
		check(err)
		var mc simfs.Context
		check(json.Unmarshal(raw, &mc))
		check(admin.RegisterContext(cx, &mc, *policy, *initial))
		fmt.Printf("context %s registered (policy %s, initial sim %v)\n", mc.Name, *policy, *initial)

	case "ctx-deregister":
		needArgs(args, 1, "<context>")
		err := admin.DeregisterContext(cx, args[1])
		if simfs.ErrCodeOf(err) == simfs.CodeBusy {
			log.Fatalf("simfs-ctl: %v\n(drain the context and retry once references, waiters and simulations are gone)", err)
		}
		check(err)
		fmt.Printf("context %s deregistered (storage area kept on disk)\n", args[1])

	case "drain":
		needArgs(args, 1, "<context>")
		check(admin.Drain(cx, args[1]))
		fmt.Printf("context %s draining: new opens and prefetches are refused\n", args[1])

	case "resume":
		needArgs(args, 1, "<context>")
		check(admin.Resume(cx, args[1]))
		fmt.Printf("context %s resumed\n", args[1])

	default:
		usage()
	}
}

// runAutoscale attaches a closed-loop controller to the remote daemon:
// every tick it samples the stats stream and steers whatever policies
// the flags armed, printing one line per decision. The decision trail
// stays here; the daemon logs each sched-set and cache-policy-set it
// applies, naming this client. It detaches on SIGINT/SIGTERM or after
// -duration.
func runAutoscale(c *simfs.Client, args []string) {
	fs := flag.NewFlagSet("autoscale", flag.ExitOnError)
	tick := fs.Duration("tick", 5*time.Second, "sampling interval")
	duration := fs.Duration("duration", 0, "detach after this long (0 = run until interrupted)")
	highWait := fs.Duration("high-wait", 500*time.Millisecond, "demand queue-wait per window that counts as contention")
	calm := fs.Int("calm-ticks", 3, "consecutive calm windows before widen/arm decisions are undone")
	cooldown := fs.Duration("cooldown", 30*time.Second, "minimum delay between a policy's actuations")
	budget := fs.String("budget", "", "arm the node-budget governor: MIN:MAX nodes")
	budgetStep := fs.Int("budget-step", 1, "nodes added/removed per budget actuation")
	var preempt simfs.PreemptPolicy
	fs.TextVar(&preempt, "preempt", preempt, "arm the preemption governor with this victim policy: youngest")
	cachePolicies := fs.String("cache-policies", "", "arm the cache switcher: comma-separated rotation, e.g. DCL,LRU")
	drr := fs.Int("drr", 0, "arm the DRR-quantum tuner with this quantum (output steps)")
	fs.Parse(args)

	var pols []autoscale.Policy
	if *budget != "" {
		var min, max int
		if _, err := fmt.Sscanf(*budget, "%d:%d", &min, &max); err != nil || min <= 0 || max < min {
			log.Fatalf("simfs-ctl: -budget wants MIN:MAX with 0 < MIN <= MAX, got %q", *budget)
		}
		pols = append(pols, &autoscale.NodeBudget{Min: min, Max: max, Step: *budgetStep,
			HighWait: *highWait, CalmTicks: *calm, Cooldown: *cooldown})
	}
	if preempt != sched.PreemptOff {
		pols = append(pols, &autoscale.PreemptGovernor{HighWait: *highWait, CalmTicks: *calm, Cooldown: *cooldown})
	}
	if *cachePolicies != "" {
		pols = append(pols, &autoscale.CacheSwitcher{Policies: strings.Split(*cachePolicies, ","),
			Cooldown: *cooldown})
	}
	if *drr > 0 {
		pols = append(pols, &autoscale.DRRTuner{Quantum: *drr, CalmTicks: *calm, Cooldown: *cooldown})
	}
	if len(pols) == 0 {
		log.Fatal("simfs-ctl: autoscale with no policies armed would only watch; give at least one of -budget, -preempt, -cache-policies, -drr")
	}

	decisions := 0
	ctrl, err := autoscale.New(autoscale.NewAdminTarget(c), pols, autoscale.Options{
		Clock: des.NewWallClock(),
		OnDecision: func(d autoscale.Decision) {
			decisions++
			//simfs:allow wallclock operator-facing log timestamp on the live CLI
			fmt.Printf("%s  %-14s %s — %s\n", time.Now().Format("15:04:05"), d.Policy, d.Action, d.Reason)
		},
	})
	check(err)

	fmt.Printf("autoscale: steering %s every %v (policies: %s)\n", *addr, *tick, strings.Join(ctrl.Policies(), ", "))
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	ticker := time.NewTicker(*tick) //simfs:allow wallclock the live CLI paces a real daemon; DES tests drive TickOnce directly
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ticker.C:
			if err := ctrl.TickOnce(); err != nil {
				log.Printf("simfs-ctl: autoscale tick: %v", err)
			}
		case <-stop:
			break loop
		case <-deadline:
			break loop
		}
	}
	fmt.Printf("autoscale: detached after %d decision(s)\n", decisions)
}

// printStats prints a context's stats record to out: every counter but
// the scheduler's Queued and per-class Jobs, which post-date the
// output's golden (testdata/stats.txt). The fieldsync analyzer holds it
// to the records it prints whole: a field added to metrics.Report,
// CtxStats or LockStats and not printed here fails simfs-vet.
//
//simfs:sync metrics.Report
//simfs:sync metrics.CtxStats
//simfs:sync metrics.LockStats
func printStats(out io.Writer, r metrics.Report) {
	c, l, s := r.CtxStats, r.LockStats, r.SchedStats
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "opens\t%d\nhits\t%d\nmisses\t%d\nrestarts\t%d\n", c.Opens, c.Hits, c.Misses, c.Restarts)
	fmt.Fprintf(w, "demand restarts\t%d\nprefetch launches\t%d\ndropped prefetch\t%d\n", c.DemandRestarts, c.PrefetchLaunches, c.DroppedPrefetch)
	fmt.Fprintf(w, "steps produced\t%d\nevictions\t%d\nkills\t%d\nfailures\t%d\npollution resets\t%d\n", c.StepsProduced, c.Evictions, c.Kills, c.Failures, c.PollutionResets)
	fmt.Fprintf(w, "shard lock acquisitions\t%d\nshard lock contended\t%d\nshard lock wait\t%s\n",
		l.Acquisitions, l.Contended, l.Wait)
	fmt.Fprintf(w, "draining\t%v\ncache policy\t%s\n", r.Draining, r.CachePolicy)
	fmt.Fprintf(w, "sched queue depth\t%d\nsched coalesced\t%d\nsched dropped\t%d\nsched canceled\t%d\n",
		s.QueueDepth, s.Coalesced, s.Dropped, s.Canceled)
	fmt.Fprintf(w, "sched wait demand/guided/agent\t%s/%s/%s\n",
		s.DemandWait.Wait, s.GuidedWait.Wait, s.AgentWait.Wait)
	fmt.Fprintf(w, "sched preempted\t%d\nsched promoted\t%d\nsched quota rounds/deferred\t%d/%d\n",
		s.Preempted, s.Promoted, s.QuotaRounds, s.QuotaDeferred)
	fmt.Fprintf(w, "sched retries\t%d\nsched quarantined\t%d\n", r.Retries, r.Quarantined)
	w.Flush()
	if len(r.ClientLoads) > 0 {
		fmt.Fprintln(out, "\nclient load (output steps submitted):")
		lw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintf(lw, "client\tsteps\n")
		for _, client := range slices.Sorted(maps.Keys(r.ClientLoads)) {
			fmt.Fprintf(lw, "%s\t%d\n", client, r.ClientLoads[client])
		}
		lw.Flush()
	}
	printOpLatencies(out, r.Ops)
}

// printOpLatencies prints the per-op service-time percentiles (log2
// buckets, so ±2×) to out: the daemon-side cost of each op, which is
// what separates "the daemon is slow" from "the network/router is slow".
func printOpLatencies(out io.Writer, ops []metrics.OpLatency) {
	if len(ops) == 0 {
		return
	}
	fmt.Fprintln(out, "\nop latency (service time, log2-bucket precision):")
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "op\tcount\tp50\tp99\n")
	for _, l := range ops {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", l.Op, l.Count, time.Duration(l.P50Ns), time.Duration(l.P99Ns))
	}
	w.Flush()
}

func printSched(cfg simfs.SchedInfo) {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "coalesce\t%v\npriorities\t%v\n", cfg.Coalesce, cfg.Priorities)
	if cfg.TotalNodes == 0 {
		fmt.Fprintf(w, "node budget\tunlimited\n")
	} else {
		fmt.Fprintf(w, "node budget\t%d\n", cfg.TotalNodes)
	}
	fmt.Fprintf(w, "preempt policy\t%s\n", cfg.Preempt)
	if cfg.DRRQuantum == 0 {
		fmt.Fprintf(w, "drr quantum\toff (pure FIFO)\n")
	} else {
		fmt.Fprintf(w, "drr quantum\t%d steps\n", cfg.DRRQuantum)
	}
	w.Flush()
}

func open(c *simfs.Client, name string) *simfs.AnalysisContext {
	if name == "" {
		log.Fatal("simfs-ctl: -context required for this command")
	}
	ctx, err := c.Init(name)
	check(err)
	return ctx
}

func needArgs(args []string, n int, what string) {
	if len(args) < n+1 {
		log.Fatalf("simfs-ctl: %s requires %s", args[0], what)
	}
}

func check(err error) {
	if err != nil {
		// Daemon errors already render their structured code, e.g.
		// `unknown context "x" (no_such_context)`.
		log.Fatalf("simfs-ctl: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: simfs-ctl [-addr host:port] [-context name] [-timeout d] <command>

inspection:
  proto                         show the negotiated protocol version and capabilities
  contexts                      list simulation contexts
  info                          show one context's parameters (-context)
  stats                         show every counter of one context's stats frame, per-client
                                load and per-op latency percentiles (-context)
  health                        fault-tolerance counters, per-op latency percentiles (-context)
  peers                         federation links (a router's ring members)
  estwait <file>                estimated availability delay (-context)
  bitrep <file>                 bitwise-reproducibility check (-context)
  rescan                        resync the cache with the storage area (-context)

control plane (live, no restart):
  sched-get                     show the re-simulation scheduler config
  sched-set [-coalesce] [-priorities] [-nodes N] [-preempt P] [-quantum Q]
                                reconfigure the scheduler (partial: only given flags change);
                                -preempt off|youngest, -quantum in output steps
  cache-policy-set <ctx> <policy>
                                swap the replacement scheme (LRU|LIRS|ARC|BCL|DCL)
  ctx-register -config f.json [-policy P] [-initial-sim]
                                add a simulation context
  ctx-deregister <ctx>          remove a drained context
  drain <ctx>                   refuse new opens/prefetches for a context
  resume <ctx>                  lift a drain
  quarantine-reset [ctx]        clear the re-simulation failure ledger (all contexts if omitted)

closed-loop control:
  autoscale [-tick d] [-duration d] [-budget MIN:MAX] [-preempt P] [-cache-policies A,B]
            [-drr Q] ...
                                attach a controller that steers the daemon from its own
                                stats stream until interrupted; decisions are printed here,
                                and the daemon logs each reconfiguration it applies`)
	os.Exit(2)
}
