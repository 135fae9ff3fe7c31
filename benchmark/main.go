// Command benchmark is the SimFS benchmark: one named workload against
// the real stack, its output checks, and every metric BENCHMARK.json
// declares, by name with its unit. See README.md in this directory.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//	benchmark --agree <setA> <setB>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def declares a metric: the name later issues quote, and its unit.
type def struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports all
// of them (untraced run), and BENCHMARK.json gates each with a bound.
var endToEnd = []def{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"open_ready_p50_us", "us"},
	{"open_ready_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced run reports: the ungated end-to-end counts
// (which are 0 or constant on some workloads, so they cannot carry a
// bound) and one group per package of the repo. A layer a workload does
// not exercise reports 0.
var perLayer = []def{
	{"failed_frac", "1"},
	{"resim_steps_per_op", "count"},
	{"virt_completion_p50_s", "s"},
	{"tcp.floor_rtt_us", "us"},
	{"dvlib.open_us", "us"},
	{"dvlib.wait_us", "us"},
	{"dvlib.close_us", "us"},
	{"dvlib.open_ready_p99_us", "us"},
	{"dvlib.open_ready_samples", "count"},
	{"dvlib.ping_rtt_us", "us"},
	{"netproto.bin_codec_ns_per_op", "ns"},
	{"netproto.bin_allocs_per_op", "count"},
	{"netproto.bin_bytes_per_op", "B"},
	{"netproto.json_codec_ns_per_op", "ns"},
	{"server.session_us", "us"},
	{"server.open_svc_p50_us", "us"},
	{"server.release_svc_p50_us", "us"},
	{"fed.router_hop_us", "us"},
	{"fed.router_cpu_us_per_op", "us"},
	{"fed.router_allocs_per_op", "count"},
	{"fed.ring_owner_ns", "ns"},
	{"core.open_hit_ns", "ns"},
	{"core.open_hit_allocs", "count"},
	{"core.miss_inproc_us", "us"},
	{"core.sim_event_us_per_op", "us"},
	{"core.lock_contended_frac", "1"},
	{"core.lock_wait_us_per_op", "us"},
	{"sched.submit_next_ns", "ns"},
	{"sched.demand_wait_us_per_miss", "us"},
	{"sched.coalesced_per_op", "count"},
	{"cache.access_ns", "ns"},
	{"cache.hit_frac", "1"},
	{"cache.evictions_per_op", "count"},
	{"notify.publish_deliver_ns", "ns"},
	{"notify.publish_fanout100_ns", "ns"},
	{"simulator.launch_turnaround_us", "us"},
	{"simulator.restarts_per_op", "count"},
	{"vfs.create_us", "us"},
	{"vfs.remove_us", "us"},
	{"vfs.write_busy_frac", "1"},
	{"vfs.bytes_written_per_op", "B"},
	{"des.event_ns", "ns"},
	{"prefetch.on_access_ns", "ns"},
	{"prefetch.launches_per_op", "count"},
	{"prefetch.dropped_per_op", "count"},
	{"experiments.replay_ns_per_access", "ns"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.live_heap_mb", "MB"},
	{"budget.residual_frac", "1"},
	{"trace.overhead_frac", "1"},
}

// metricSet collects values for one list of defs; set panics on a name
// the list does not declare (a bug the self-test catches).
type metricSet map[string]metric

func newMetricSet(defs []def) metricSet {
	m := metricSet{}
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

func (m metricSet) get(name string) float64 { return m[name].Value }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
	sz       sizes
}

// record is what --out appends: the result line plus where, when and on
// what it was measured.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Correct    bool    `json:"correct"`
	CheckErr   string  `json:"check_error,omitempty"`
	Attempted  uint64  `json:"attempted"`
	Failed     uint64  `json:"failed"`
	// Slow is the untraced phase's median probe over nominalProbe: divide
	// a calibrated time by it, or multiply a rate, to get wall-clock back.
	Slow    float64           `json:"slow"`
	Metrics map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed uint64
	slow              float64
	metrics           metricSet
	checkErr          error  // a failed output check: the run is not correct
	spans             []span // traced run only
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "", "hit_pipelined | hit_routed_sync | miss_resim | des_multi")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.out, "out", "", "append the full record to this file (JSON lines); spans go to <out>.trace.json")
	flag.BoolVar(&agree, "agree", false, "compare two sets of records: --agree <setA> <setB>")
	flag.Parse()

	if agree {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: benchmark --agree <setA> <setB>"))
		}
		ok, err := agreeSets(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if runtime.NumCPU() < numClients {
		fatal(fmt.Errorf("%d clients need %d cores, this machine has %d", numClients, numClients, runtime.NumCPU()))
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	cfg.sz = fullSizes
	// A wedged daemon must not wedge the caller: past the deadline the
	// process gives up without a result.
	watchdog := time.AfterFunc(cfg.seconds+120*time.Second, func() {
		fatal(errors.New("watchdog: the run did not finish"))
	})
	out, err := run(cfg)
	watchdog.Stop()
	if err != nil {
		fatal(err)
	}

	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Slow: out.slow, Metrics: out.metrics,
	}
	if out.checkErr != nil {
		rec.CheckErr = out.checkErr.Error()
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", out.checkErr)
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			fatal(err)
		}
		if cfg.trace {
			if err := writeSpans(cfg.out+".trace.json", out.spans); err != nil {
				fatal(err)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run dispatches one workload.
func run(cfg config) (outcome, error) {
	switch cfg.workload {
	case wlHitPipelined, wlHitRoutedSync, wlMissResim:
		return runTCP(cfg)
	case wlDESMulti:
		return runDESMulti(cfg)
	}
	return outcome{}, fmt.Errorf("unknown workload %q", cfg.workload)
}

// endToEndMetrics fills the gated set from an untraced phase. The timing
// metrics are in calibrated time (see probe): divided by how much slower
// than nominal the box ran meanwhile.
func endToEndMetrics(p *phase, setups []float64) metricSet {
	m := newMetricSet(endToEnd)
	slow := p.slow()
	m.set("setup_s", median(setups)/slow)
	m.set("ops_per_s", p.opsPerSec()*slow)
	m.set("open_ready_p50_us", p.lat.quantile(0.5)/1e3/slow)
	m.set("open_ready_p90_us", p.lat.quantile(0.9)/1e3/slow)
	m.set("cpu_us_per_op", ratio(us(p.cpu), p.ops())/slow)
	m.set("allocs_per_op", ratio(float64(p.mallocs), p.ops()))
	m.set("peak_rss_mb", peakRSSMB())
	return m
}

// runTCP runs one of the three socket workloads untraced. The timed
// phase is split over cfg.sz.setups fresh environments, one after the
// other: set-up time gets that many samples spread over the run, and the
// measurement does not hang on one environment's luck (ports, heap
// layout).
func runTCP(cfg config) (outcome, error) {
	if cfg.trace {
		return traceTCP(cfg)
	}
	var p phase
	var times []float64
	var checks []error
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := now()
		env, err := setupTCP(cfg.workload, cfg.sz, cfg.seed<<4|int64(i))
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, (now() - t0).Seconds())
		part := env.run(cfg.seconds/time.Duration(cfg.sz.setups), nil)
		p.absorb(&part)
		checks = append(checks, env.verify(), env.close())
	}
	return outcome{attempted: p.attempted, failed: p.failed, slow: p.slow(), metrics: endToEndMetrics(&p, times),
		checkErr: errors.Join(checks...)}, nil
}

// traceTCP is the traced run of a socket workload: one environment, the
// time split into alternating untraced and traced quarters (so a drift
// of the box lands on both sides), then the drills.
func traceTCP(cfg config) (outcome, error) {
	env, err := setupTCP(cfg.workload, cfg.sz, cfg.seed)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	var base, traced phase
	ts := newTraceSet(numClients)
	for i := 0; i < 2; i++ {
		part := env.run(cfg.seconds/4, nil)
		base.absorb(&part)
		part = env.run(cfg.seconds/4, ts)
		traced.absorb(&part)
	}
	out := outcome{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed,
		slow: base.slow(), metrics: newMetricSet(perLayer)}
	commonLayers(out.metrics, &base, &traced)
	err = tcpLayers(env, &base, &traced, ts, out.metrics)
	out.spans = ts.resolve()
	out.checkErr = errors.Join(checkSpans(out.spans), env.verify(), env.close())
	return out, err
}

// runDESMulti runs the virtual-time workload untraced, its timed phase
// split over the set-ups like runTCP's.
func runDESMulti(cfg config) (outcome, error) {
	if cfg.trace {
		return traceDES(cfg)
	}
	var p desPhase
	var times []float64
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := now()
		if err := setupDES(cfg.seed, cfg.sz); err != nil {
			return outcome{}, err
		}
		times = append(times, (now() - t0).Seconds())
		if err := p.run(cfg.seed, cfg.seconds/time.Duration(cfg.sz.setups), cfg.sz, nil); err != nil {
			return outcome{}, err
		}
	}
	return outcome{attempted: p.attempted, slow: p.slow(), metrics: endToEndMetrics(&p.phase, times),
		checkErr: verifyDES(cfg.seed)}, nil
}

// traceDES is the traced run of des_multi. Both halves replay the same
// seeds, so they do the same work.
func traceDES(cfg config) (outcome, error) {
	if err := setupDES(cfg.seed, cfg.sz); err != nil {
		return outcome{}, err
	}
	var base, traced desPhase
	if err := base.run(cfg.seed, cfg.seconds/2, cfg.sz, nil); err != nil {
		return outcome{}, err
	}
	rec := newRecorder(0, false)
	if err := traced.run(cfg.seed, cfg.seconds/2, cfg.sz, rec); err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: base.attempted + traced.attempted, slow: base.slow(),
		metrics: newMetricSet(perLayer), spans: rec.spans}
	commonLayers(out.metrics, &base.phase, &traced.phase)
	if err := desLayers(cfg.seed, cfg.sz, &base, out.metrics); err != nil {
		return out, err
	}
	out.checkErr = errors.Join(checkSpans(out.spans), verifyDES(cfg.seed))
	return out, nil
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a checkout that has one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
