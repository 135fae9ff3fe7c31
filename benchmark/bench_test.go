package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// testSizes shrink every workload so the whole self-test takes a few
// seconds. The miss workload keeps its cache at 1.6 % of the timeline so
// it still misses.
var testSizes = sizes{steps: 512, warmup: 50, cacheSteps: 8, setups: 2, desWarm: 1, desVirt: 2, drill: 20}

func declared(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(gs []gated) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name
	}
	sort.Strings(out)
	return out
}

// TestSchema runs every workload, untraced and traced, at reduced sizes
// and holds what it emits against what BENCHMARK.json declares: the same
// names, the same units, well-formed names, checks passing, and a trace
// whose spans nest.
func TestSchema(t *testing.T) {
	bf := declared(t)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if want := []string{wlHitPipelined, wlHitRoutedSync, wlMissResim, wlDESMulti}; !slices.Equal(wls, want) {
		t.Fatalf("BENCHMARK.json workloads %v, the program runs %v", wls, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range wls {
		for _, traced := range []bool{false, true} {
			out, err := run(config{workload: wl, seed: 1, seconds: 300 * time.Millisecond, trace: traced, sz: testSizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if out.checkErr != nil {
				t.Errorf("%s trace=%v: output check: %v", wl, traced, out.checkErr)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl, traced, out.attempted, out.failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			var got []string
			for name, m := range out.metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s: malformed metric name %q", wl, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", wl, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl, name, m.Value)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, names(want)) {
				t.Errorf("%s trace=%v emits %v\nBENCHMARK.json declares %v", wl, traced, got, names(want))
			}
			for _, g := range want {
				if u := out.metrics[g.Name].Unit; u != g.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl, g.Name, u, g.Unit)
				}
			}
			if traced {
				if len(out.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", wl)
				}
				if err := checkSpans(out.spans); err != nil {
					t.Errorf("%s: %v", wl, err)
				}
			}
		}
	}
}

// TestMechanismBypass pins the split the workloads exist for: the hit
// workloads never re-simulate or write, only the routed one crosses fed.
func TestMechanismBypass(t *testing.T) {
	for _, wl := range []string{wlHitPipelined, wlHitRoutedSync, wlMissResim} {
		out, err := run(config{workload: wl, seed: 2, seconds: 200 * time.Millisecond, trace: true, sz: testSizes})
		if err != nil {
			t.Fatal(err)
		}
		m := out.metrics
		hit := wl != wlMissResim
		if hit && (m.get("resim_steps_per_op") != 0 || m.get("vfs.write_busy_frac") != 0 || m.get("cache.hit_frac") != 1) {
			t.Errorf("%s re-simulated: steps/op %v, write busy %v, hit frac %v", wl,
				m.get("resim_steps_per_op"), m.get("vfs.write_busy_frac"), m.get("cache.hit_frac"))
		}
		if !hit && (m.get("cache.hit_frac") > 0.05 || m.get("vfs.bytes_written_per_op") == 0) {
			t.Errorf("%s: hit frac %v, bytes written/op %v", wl, m.get("cache.hit_frac"), m.get("vfs.bytes_written_per_op"))
		}
		if routed := wl == wlHitRoutedSync; (m.get("fed.ring_owner_ns") != 0) != routed {
			t.Errorf("%s: fed.ring_owner_ns = %v", wl, m.get("fed.ring_owner_ns"))
		}
	}
}

func TestSpanChecks(t *testing.T) {
	ok := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 60},
		{Name: "b", ID: 3, Parent: 1, Start: 40, End: 90}, // overlaps a: covered once
	}
	if err := checkSpans(ok); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(ok)[1]; self != 20 {
		t.Errorf("self time %v, want 20ns (100 minus the 80 its children cover)", self)
	}
	for name, bad := range map[string][]span{
		"orphan":  {{Name: "a", ID: 2, Parent: 9, Start: 0, End: 1}},
		"escapes": {{Name: "op", ID: 1, Start: 0, End: 10}, {Name: "a", ID: 2, Parent: 1, Start: 5, End: 11}},
		"dup":     {{Name: "a", ID: 1, Start: 0, End: 1}, {Name: "b", ID: 1, Start: 0, End: 1}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := 1; v <= 100_000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := h.quantile(q), q*100_000; math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%v = %v, want %v within 0.5%%", q, got, want)
		}
	}
}

// TestQuartiles pins the agreement tool's quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestAgree(t *testing.T) {
	bf := declared(t)
	dir := t.TempDir()
	write := func(file string, scale float64) string {
		path := filepath.Join(dir, file)
		for _, w := range bf.Workloads {
			for i := 0; i < 10; i++ {
				ms := map[string]metric{}
				for _, g := range bf.EndToEnd {
					ms[g.Name] = metric{Value: scale * (100 + float64(i)/10), Unit: g.Unit}
				}
				if err := appendRecord(path, record{Workload: w.Name, Correct: true, Metrics: ms}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, worse := write("a", 1), write("same", 1), write("worse", 1.5)
	bench := filepath.Join("..", "BENCHMARK.json")
	var buf bytes.Buffer
	if ok, err := agreeSets(&buf, a, same, bench); err != nil || !ok {
		t.Errorf("identical sets: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// 1.5× is worse for every lower-is-better metric.
	if ok, err := agreeSets(&buf, a, worse, bench); err != nil || ok {
		t.Errorf("50%% worse set: ok=%v err=%v", ok, err)
	}
}
