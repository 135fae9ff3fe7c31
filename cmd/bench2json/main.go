// Command bench2json condenses `go test -bench` output into a committed
// JSON scoreboard. It reads the benchmark text from stdin, takes the
// median of each metric across -count repetitions, and emits one JSON
// object per sub-benchmark plus any number of base-vs-target comparisons
// (speedup, allocation ratio, throughput ratio). The Makefile's
// bench-fed and bench-autoscale targets drive it to regenerate
// BENCH_federation.json and BENCH_autoscale.json.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkFederationTCP -count 3 . |
//	    bench2json -bench BenchmarkFederationTCP \
//	        -compare 'daemons=2/mode=router vs daemons=1/mode=router' -out BENCH_federation.json
//
// -compare is repeatable; each occurrence is "target vs base" naming two
// sub-benchmarks from the input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is the aggregated (median) metric set of one sub-benchmark.
type result struct {
	Runs            int                `json:"runs"`
	NsPerOp         float64            `json:"ns_per_op"`
	AllocsPerOp     float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp      float64            `json:"bytes_per_op,omitempty"`
	RoundtripsPerSc float64            `json:"roundtrips_per_sec,omitempty"`
	Other           map[string]float64 `json:"other_metrics,omitempty"`
}

type comparison struct {
	Base        string  `json:"base"`
	Target      string  `json:"target"`
	Speedup     float64 `json:"speedup_ns_per_op"`
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
	ThroughputX float64 `json:"throughput_ratio,omitempty"`
}

type report struct {
	Benchmark   string             `json:"benchmark"`
	Context     map[string]string  `json:"context,omitempty"`
	Results     map[string]*result `json:"results"`
	Comparisons []*comparison      `json:"comparisons,omitempty"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	bench := flag.String("bench", "", "benchmark name to collect (prefix before the first '/'; empty = all)")
	out := flag.String("out", "", "output file (default stdout)")
	var pairs [][2]string // {target, base}
	flag.Func("compare", "repeatable \"target vs base\" pair of sub-benchmark names", func(s string) error {
		target, base, ok := strings.Cut(s, " vs ")
		if !ok {
			return fmt.Errorf("want %q, got %q", "target vs base", s)
		}
		pairs = append(pairs, [2]string{strings.TrimSpace(target), strings.TrimSpace(base)})
		return nil
	})
	flag.Parse()

	samples := map[string]map[string][]float64{} // sub-bench -> unit -> values
	context := map[string]string{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos:", "goarch:", "cpu:"} {
			if strings.HasPrefix(line, key) {
				context[strings.TrimSuffix(key, ":")] = strings.TrimSpace(strings.TrimPrefix(line, key))
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		root, sub := name, name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			root, sub = name[:i], name[i+1:]
		}
		if *bench != "" && root != *bench {
			continue
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if samples[sub] == nil {
				samples[sub] = map[string][]float64{}
			}
			samples[sub][fields[i+1]] = append(samples[sub][fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("bench2json: %v", err)
	}
	if len(samples) == 0 {
		log.Fatal("bench2json: no benchmark lines on stdin")
	}

	rep := report{Benchmark: *bench, Context: context, Results: map[string]*result{}}
	for sub, units := range samples {
		r := &result{}
		for unit, vals := range units {
			m := median(vals)
			switch unit {
			case "ns/op":
				r.NsPerOp = m
				r.Runs = len(vals)
			case "allocs/op":
				r.AllocsPerOp = m
			case "B/op":
				r.BytesPerOp = m
			case "roundtrips/sec":
				r.RoundtripsPerSc = m
			default:
				if r.Other == nil {
					r.Other = map[string]float64{}
				}
				r.Other[unit] = m
			}
		}
		rep.Results[sub] = r
	}

	for _, p := range pairs {
		target, base := p[0], p[1]
		tr, okT := rep.Results[target]
		br, okB := rep.Results[base]
		if !okB || !okT {
			log.Fatalf("bench2json: comparison needs both %q and %q in the input", base, target)
		}
		cmp := &comparison{Base: base, Target: target}
		if tr.NsPerOp > 0 {
			cmp.Speedup = round3(br.NsPerOp / tr.NsPerOp)
		}
		if br.AllocsPerOp > 0 {
			cmp.AllocsRatio = round3(tr.AllocsPerOp / br.AllocsPerOp)
		}
		if br.RoundtripsPerSc > 0 {
			cmp.ThroughputX = round3(tr.RoundtripsPerSc / br.RoundtripsPerSc)
		}
		rep.Comparisons = append(rep.Comparisons, cmp)
		fmt.Fprintf(os.Stderr, "bench2json: %s vs %s: %.2fx faster, %.2fx the allocations\n",
			target, base, cmp.Speedup, cmp.AllocsRatio)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("bench2json: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("bench2json: %v", err)
	}
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
