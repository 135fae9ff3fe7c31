package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"simfs/internal/des"
	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/simulator"
)

// stressContext returns a context tuned so re-simulations complete in
// tens of microseconds under the real-time launcher.
func stressContext(name string) *model.Context {
	c := &model.Context{
		Name:               name,
		Grid:               model.Grid{DeltaD: 1, DeltaR: 8, Timesteps: 128},
		OutputBytes:        1,
		RestartBytes:       1,
		MaxCacheBytes:      64,
		Tau:                time.Second,
		Alpha:              time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     2,
		SMax:               4,
		NoPrefetch:         true,
	}
	c.ApplyDefaults()
	return c
}

// TestConcurrentMultiContextStress hammers Open/Acquire/Release across
// multiple contexts from many goroutines while real-time simulations
// complete concurrently, auditing invariants throughout. Run under
// -race (CI does) it validates the sharded locking discipline, including
// the cross-shard pipeline path and the notify hub.
func TestConcurrentMultiContextStress(t *testing.T) {
	launcher := &simulator.RealTimeLauncher{
		TimeScale: 50_000, // 1 s of simulated time ≈ 20 µs
		Write:     func(*model.Context, int) error { return nil },
	}
	v := New(des.NewWallClock(), launcher)
	launcher.Events = v

	names := []string{"s0", "s1", "s2"}
	for _, name := range names {
		if err := v.AddContext(stressContext(name), "LRU", nil); err != nil {
			t.Fatal(err)
		}
	}
	// One context with active prefetch agents (kill/reset paths) …
	pf := stressContext("pf")
	pf.NoPrefetch = false
	if err := v.AddContext(pf, "DCL", nil); err != nil {
		t.Fatal(err)
	}
	names = append(names, "pf")
	// … and one pipeline context whose re-simulations acquire files of
	// s0 first (cross-shard lock ordering under load).
	pipe := stressContext("pipe")
	pipe.Upstream = "s0"
	if err := v.AddContext(pipe, "LRU", nil); err != nil {
		t.Fatal(err)
	}
	names = append(names, "pipe")

	opsPerWorker := 150
	if testing.Short() {
		opsPerWorker = 40
	}
	const workersPerCtx = 3
	waitTimeout := 30 * time.Second

	var wg sync.WaitGroup
	errs := make(chan error, len(names)*workersPerCtx)
	for ci, name := range names {
		ctx, _ := v.Context(name)
		steps := ctx.Grid.NumOutputSteps()
		for w := 0; w < workersPerCtx; w++ {
			wg.Add(1)
			go func(name string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				client := fmt.Sprintf("cli-%s-%d", name, seed)
				// open is Open, and for a miss a wait on the file's fate.
				open := func(file string) error {
					done := make(chan notify.Event, 1)
					res, err := openAwait(v, client, name, file, func(st notify.Event) { done <- st })
					if err != nil || !res.Awaited {
						return err
					}
					select {
					case <-done:
						return nil
					case <-time.After(waitTimeout):
						return fmt.Errorf("%s: wait for %s timed out", client, file)
					}
				}
				for i := 0; i < opsPerWorker; i++ {
					file := ctx.Filename(rng.Intn(steps) + 1)
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4: // open → wait → release
						if err := open(file); err != nil {
							errs <- err
							return
						}
						if err := v.Release(client, name, file); err != nil {
							errs <- err
							return
						}
					case 5, 6: // multi-file acquire
						files := []string{
							ctx.Filename(rng.Intn(steps) + 1),
							ctx.Filename(rng.Intn(steps) + 1),
							ctx.Filename(rng.Intn(steps) + 1),
						}
						for _, f := range files {
							if err := open(f); err != nil {
								errs <- err
								return
							}
						}
						for _, f := range files {
							if err := v.Release(client, name, f); err != nil {
								errs <- err
								return
							}
						}
					case 7: // guided prefetch
						if _, err := v.GuidedPrefetch(client, name, []string{file}); err != nil {
							errs <- err
							return
						}
					default: // hub-based wait (Watch subscribes, then reads the state)
						sub, watched, err := watch(v, client, name, []string{file})
						if err != nil {
							errs <- err
							return
						}
						if watched[0].Resident || !watched[0].Promised {
							sub.Close()
							continue
						}
						select {
						case <-sub.C():
						case <-time.After(waitTimeout):
							errs <- fmt.Errorf("%s: hub wait for %s timed out", client, file)
							return
						}
						sub.Close()
					}
				}
			}(name, int64(ci*workersPerCtx+w+1))
		}
	}

	// Audit invariants concurrently with the load.
	stop := make(chan struct{})
	auditDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				auditDone <- nil
				return
			default:
				if err := v.CheckInvariants(); err != nil {
					auditDone <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-auditDone; err != nil {
		t.Fatalf("invariants violated under load: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	launcher.Wait()
	if err := v.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after drain: %v", err)
	}

	// The workload must have spread over the shards; every shard lock saw
	// traffic and the totals add up.
	var total uint64
	for _, name := range names {
		r, err := v.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Acquisitions == 0 {
			t.Errorf("shard %s never locked", name)
		}
		total += r.Acquisitions
	}
	if got := v.TotalLockStats().Acquisitions; got != total {
		t.Errorf("TotalLockStats = %d, sum of shards = %d", got, total)
	}
	for _, name := range names {
		st, err := v.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Opens == 0 {
			t.Errorf("context %s saw no opens", name)
		}
	}
}

// TestHubPublishesReadiness checks the Virtualizer's hub publications:
// ready on production and preload, failed on simulation death.
func TestHubPublishesReadiness(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)

	// Production → FileReady.
	topic := notify.Topic{Context: "c", Step: 2}
	sub := h.v.Hub().Subscribe(topic)
	if _, err := h.v.Open("a1", "c", ctx.Filename(2)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	ev, ok := <-sub.C()
	if !ok || ev.Kind != notify.FileReady || ev.Topic != topic {
		t.Fatalf("event = %+v (ok=%v), want FileReady for %+v", ev, ok, topic)
	}

	// Preload → FileReady.
	topic9 := notify.Topic{Context: "c", Step: 9}
	sub9 := h.v.Hub().Subscribe(topic9)
	if err := h.v.Preload("c", []int{9}); err != nil {
		t.Fatal(err)
	}
	if ev := <-sub9.C(); ev.Kind != notify.FileReady {
		t.Fatalf("preload published %+v, want FileReady", ev)
	}

	// Failure → FileFailed with the reason. The injected crash hits
	// halfway through the re-simulated interval (48,52], so step 52 is
	// never produced.
	h.l.FailAt = faults.NewSimPlan().WithEvery(1).FailAt
	fileFar := ctx.Filename(52)
	topicFar := notify.Topic{Context: "c", Step: 52}
	subFar := h.v.Hub().Subscribe(topicFar)
	if _, err := h.v.Open("a1", "c", fileFar); err != nil {
		t.Fatal(err)
	}
	h.eng.Run(0)
	evFar, ok := <-subFar.C()
	if !ok || evFar.Kind != notify.FileFailed || evFar.Err == "" {
		t.Fatalf("event = %+v (ok=%v), want FileFailed with reason", evFar, ok)
	}
}

// TestFileState covers the state half of Watch, one file at a time.
func TestFileState(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1})

	resident, promised, err := h.v.FileState("c", ctx.Filename(1))
	if err != nil || !resident || promised {
		t.Errorf("preloaded file: resident=%v promised=%v err=%v", resident, promised, err)
	}
	resident, promised, err = h.v.FileState("c", ctx.Filename(7))
	if err != nil || resident || promised {
		t.Errorf("untouched file: resident=%v promised=%v err=%v", resident, promised, err)
	}
	h.v.Open("a1", "c", ctx.Filename(7))
	resident, promised, err = h.v.FileState("c", ctx.Filename(7))
	if err != nil || resident || !promised {
		t.Errorf("opened-missing file: resident=%v promised=%v err=%v", resident, promised, err)
	}
	if _, _, err := h.v.FileState("nope", "x"); err == nil {
		t.Error("unknown context accepted")
	}
	if _, _, err := h.v.FileState("c", "garbage"); err == nil {
		t.Error("unparseable filename accepted")
	}
	if _, _, err := h.v.FileState("c", ctx.Filename(9999)); err == nil {
		t.Error("out-of-range step accepted")
	}
}

// TestWatch covers the subscribe-then-check step on a list: states read
// for every name (duplicates included) after the subscription is live,
// one event per distinct step, and nothing subscribed by a refused list.
func TestWatch(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1})
	if _, err := h.v.Open("a1", "c", ctx.Filename(6)); err != nil {
		t.Fatal(err)
	}
	names := []string{ctx.Filename(1), ctx.Filename(6), ctx.Filename(30), ctx.Filename(6)}
	sub, files, err := watch(h.v, "w", "c", names)
	if err != nil {
		t.Fatal(err)
	}
	want := []WatchedFile{
		{Name: names[0], Step: 1, Resident: true},
		{Name: names[1], Step: 6, Promised: true},
		{Name: names[2], Step: 30},
		{Name: names[3], Step: 6, Promised: true},
	}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("watched files = %+v\nwant %+v", files, want)
	}
	h.eng.Run(0)
	if ev := <-sub.C(); ev.Kind != notify.FileReady || ev.Topic.Step != 6 {
		t.Errorf("event = %+v, want FileReady for step 6", ev)
	}
	select {
	case ev := <-sub.C():
		t.Errorf("second event %+v: a step mentioned twice must resolve once", ev)
	default:
	}
	sub.Close()

	for _, bad := range [][]string{{ctx.Filename(1), "garbage"}, {ctx.Filename(1), ctx.Filename(101)}} {
		if _, _, err := watch(h.v, "w", "c", bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("Watch(%v) = %v, want ErrInvalid", bad, err)
		}
	}
	if _, _, err := watch(h.v, "w", "nope", names); !errors.Is(err, ErrUnknownContext) {
		t.Errorf("unknown context: %v", err)
	}
	if ws := h.v.Hub().Waiters("c"); len(ws) != 0 {
		t.Errorf("%d waiters left behind by closed and refused watches", len(ws))
	}
}
