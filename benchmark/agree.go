package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json as far as this package reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []gated `json:"per_layer"`
}

type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(b, &bf)
	return bf, err
}

// readSet loads the untraced records of a --out file, by workload.
func readSet(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
	}
	return set, sc.Err()
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// agreeSets applies the benchmark's own acceptance rule to two sets of
// runs of one commit: within each set, the interquartile spread of every
// end-to-end metric (set-up time excepted) stays inside its bound, and
// the second set's median is not worse than the first's by more than the
// bound. It prints one row per workload and metric.
func agreeSets(w io.Writer, pathA, pathB, benchPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range bf.Workloads {
		if len(a[wl.Name]) == 0 || len(b[wl.Name]) == 0 {
			return false, fmt.Errorf("workload %s is missing from a set", wl.Name)
		}
		for _, g := range bf.EndToEnd {
			values := func(rs []record) []float64 {
				var xs []float64
				for _, r := range rs {
					xs = append(xs, r.Metrics[g.Name].Value)
				}
				return xs
			}
			a1, am, a3 := quartiles(values(a[wl.Name]))
			b1, bm, b3 := quartiles(values(b[wl.Name]))
			spreadA, spreadB := ratio(a3-a1, am), ratio(b3-b1, bm)
			worse := ratio(bm-am, am)
			if g.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > g.Bound || (g.Name != "setup_s" && (spreadA > g.Bound || spreadB > g.Bound)) {
				verdict = "exceeds"
				allOK = false
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f %12.4f %8.4f %8.4f %6.2f  %s\n",
				wl.Name, g.Name, am, bm, spreadA, spreadB, g.Bound, verdict)
		}
	}
	return allOK, nil
}
