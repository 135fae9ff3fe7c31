package main

import (
	"fmt"
	"reflect"
	"time"

	"simfs/internal/experiments"
	"simfs/internal/simulator"
)

// des_multi: no sockets. The same core/sched/cache the daemon runs, but
// single-threaded under the discrete-event engine in virtual time, with
// the prefetch agents live — the paper's experiment harness. One replay
// is experiments.MultiAnalysis over the COSMO scaling context; an op is
// one analysis access.
const (
	desAnalyses   = 8
	desAccesses   = 48
	desCacheSteps = 128
	desOpsPerRun  = desAnalyses * desAccesses
	// desBatch replays make one latency sample: a single replay lasts a
	// few milliseconds, about as long as a collection cycle, so its time
	// says more about where the collector happened to run than about the
	// harness; eight of them average that out.
	desBatch = 8
)

func desReplay(seed int64) (experiments.MultiAnalysisResult, error) {
	ctx := simulator.CosmoScaling()
	ctx.MaxCacheBytes = desCacheSteps * ctx.OutputBytes
	return experiments.MultiAnalysis(ctx, experiments.MultiAnalysisConfig{
		Clients: desAnalyses, Steps: desAccesses, TauCli: 100 * time.Millisecond,
		Seed: seed, Backward: 0.25,
	})
}

// desSeed spreads the benchmark seed so neighbouring --seed values do
// not replay overlapping ranges.
func desSeed(seed int64, replay int) int64 { return seed<<20 + int64(replay) }

// desPhase accumulates measured replays: what they cost and what they
// reported (the counters land in phase.core).
type desPhase struct {
	phase
	replays int
	// The virtual-time outputs cover the first sz.desVirt replays only:
	// a fixed seed range, so they repeat exactly whatever the box's speed
	// lets the timed loop reach.
	virtCompletion []float64
	virtSteps      int64
	virtReplays    int
}

// run replays the next seeds for d, a window at a time (at least one
// replay each). rec, when set, gets one root span per replay.
func (p *desPhase) run(seed int64, d time.Duration, sz sizes, rec *recorder) error {
	var err error
	n, each := windowsIn(d)
	for i := 0; i < n && err == nil; i++ {
		var lat hist
		first := p.replays
		w := window(func() {
			deadline := now() + each
			batchStart, batched := now(), 0
			for err == nil && (p.replays == first || now() < deadline) {
				t0 := now()
				var res experiments.MultiAnalysisResult
				if res, err = desReplay(desSeed(seed, p.replays)); err != nil {
					err = fmt.Errorf("replay %d: %w", p.replays, err)
					return
				}
				t1 := now()
				p.note(res, sz)
				if rec != nil {
					rec.add(span{Name: "op", Op: uint64(p.replays), Start: int64(t0), End: int64(t1)}, true)
				}
				if batched++; batched == desBatch {
					lat.add((t1 - batchStart) / (desBatch * desOpsPerRun))
					batchStart, batched = t1, 0
				}
			}
			if lat.n == 0 { // a window too short for a whole batch
				lat.add((now() - batchStart) / time.Duration(batched*desOpsPerRun))
			}
		})
		w.lat, w.attempted = lat, uint64(p.replays-first)*desOpsPerRun
		p.absorb(&w)
	}
	return err
}

// note books one finished replay.
func (p *desPhase) note(res experiments.MultiAnalysisResult, sz sizes) {
	p.core = p.core.plus(countersOf(res.Stats, res.Sched), 1)
	if p.replays < sz.desVirt {
		p.virtReplays++
		p.virtSteps += res.Stats.StepsProduced
		for _, c := range res.Completion {
			p.virtCompletion = append(p.virtCompletion, c.Seconds())
		}
	}
	p.replays++
}

// setupDES is des_multi's set-up: the warm-up replays (heap growth, page
// faults, first-use initialisation) that the timed loop must not pay.
func setupDES(seed int64, sz sizes) error {
	for r := 0; r < sz.desWarm; r++ {
		if _, err := desReplay(desSeed(seed, -1-r)); err != nil {
			return fmt.Errorf("warm-up replay: %w", err)
		}
	}
	return nil
}

// verifyDES checks that the harness is deterministic: the first seed,
// replayed twice, must give identical counters and completion times.
func verifyDES(seed int64) error {
	a, err := desReplay(desSeed(seed, 0))
	if err != nil {
		return err
	}
	b, err := desReplay(desSeed(seed, 0))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("replaying seed %d twice gave different results", desSeed(seed, 0))
	}
	return nil
}
