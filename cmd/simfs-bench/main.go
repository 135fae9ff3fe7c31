// Command simfs-bench regenerates the paper's evaluation: every table and
// figure of Secs. III-D, V and VI, printed as the rows/series the paper
// plots. See DESIGN.md for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Usage:
//
//	simfs-bench -fig all
//	simfs-bench -fig 5 -reps 100        # the paper's full repetition count
//	simfs-bench -fig 16
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"simfs/internal/costmodel"
	"simfs/internal/experiments"
	"simfs/internal/metrics"
	"simfs/internal/simulator"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1|5|12|13|14|15a|15b|15c|16|17|18|19|ablations|sched|preempt|multi|all")
	reps := flag.Int("reps", 20, "repetitions for the Fig. 5 caching study (paper: 100)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	jobs := flag.Int("j", 0, "experiment worker pool size (0 = GOMAXPROCS); any value prints identical tables")
	flag.Parse()
	experiments.SetWorkers(*jobs)

	runs := runs(os.Stdout, *reps, *seed)
	if *fig == "all" {
		for _, f := range order {
			if err := runs[f](); err != nil {
				log.Fatalf("simfs-bench: figure %s: %v", f, err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runs[*fig]
	if !ok {
		log.Fatalf("simfs-bench: unknown figure %q", *fig)
	}
	if err := run(); err != nil {
		log.Fatalf("simfs-bench: %v", err)
	}
}

// order is what -fig all prints, each figure followed by a blank line.
var order = []string{"1", "5", "12", "13", "14", "15a", "15b", "15c", "16", "17", "18", "19", "ablations", "sched", "preempt", "multi"}

// runs is the figure table: each entry renders one -fig value to w.
func runs(w io.Writer, reps int, seed int64) map[string]func() error {
	table := func(tab *metrics.Table, err error) error {
		if err != nil {
			return err
		}
		return tab.Render(w)
	}
	tables := func(tabs []*metrics.Table, err error) error {
		if err != nil {
			return err
		}
		for _, tab := range tabs {
			if err := tab.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return map[string]func() error{
		"1":   func() error { return table(fig01()) },
		"5":   func() error { return fig05(w, reps, seed) },
		"12":  func() error { return table(fig12()) },
		"13":  func() error { return table(fig13()) },
		"14":  func() error { return table(fig14()) },
		"15a": func() error { return fig15a(w) },
		"15b": func() error { return fig15bc(w, true) },
		"15c": func() error { return fig15bc(w, false) },
		"16":  func() error { return table(experiments.Fig16()) },
		"17":  func() error { return tables(experiments.Fig17()) },
		"18":  func() error { return table(experiments.Fig18()) },
		"19":  func() error { return tables(experiments.Fig19()) },
		"ablations": func() error {
			if err := table(experiments.AblationPrefetchStrategies()); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if err := table(experiments.AblationDoubling()); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return table(experiments.AblationEMA())
		},
		"sched":   func() error { return table(experiments.AblationScheduler(seed)) },
		"preempt": func() error { return table(experiments.AblationPreempt(seed)) },
		"multi": func() error {
			ctx := simulator.CosmoScaling()
			ctx.MaxCacheBytes = 128 * ctx.OutputBytes
			return table(experiments.MultiAnalysisSweep(
				ctx, []int{1, 2, 4, 8}, 48, 100*time.Millisecond, seed))
		},
	}
}

func workload() experiments.CostWorkload { return experiments.DefaultCostWorkload() }

func fig01() (*metrics.Table, error) { return experiments.Fig01(workload(), costmodel.Azure) }
func fig12() (*metrics.Table, error) { return experiments.Fig12(workload(), costmodel.Azure) }
func fig13() (*metrics.Table, error) { return experiments.Fig13(workload(), costmodel.Azure) }
func fig14() (*metrics.Table, error) { return experiments.Fig14(workload(), costmodel.Azure) }

func fig05(w io.Writer, reps int, seed int64) error {
	cfg := experiments.DefaultFig05()
	cfg.Reps = reps
	cfg.Seed = seed
	steps, restarts, err := experiments.Fig05(cfg)
	if err != nil {
		return err
	}
	if err := steps.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return restarts.Render(w)
}

func fig15a(w io.Writer) error {
	h, err := experiments.Fig15a(workload())
	if err != nil {
		return err
	}
	if err := h.Render(w); err != nil {
		return err
	}
	// The two real-world datapoints the paper marks on the heatmap.
	fmt.Fprintf(w, "\nreference points: Azure (cs=%.2f cc=%.2f), Piz Daint (cs=%.2f cc=%.2f)\n",
		costmodel.Azure.StoragePerGiBMonth, costmodel.Azure.ComputePerNodeHour,
		costmodel.PizDaint.StoragePerGiBMonth, costmodel.PizDaint.ComputePerNodeHour)
	return nil
}

func fig15bc(w io.Writer, cost bool) error {
	costTab, timeTab, err := experiments.Fig15bc(workload(), costmodel.Azure)
	if err != nil {
		return err
	}
	if cost {
		return costTab.Render(w)
	}
	return timeTab.Render(w)
}
