package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"simfs/internal/des"
	"simfs/internal/faults"
	"simfs/internal/model"
	"simfs/internal/notify"
	"simfs/internal/simulator"
	"simfs/internal/vfs"
)

// harness wires a Virtualizer to a DES launcher on a virtual clock.
type harness struct {
	eng *des.Engine
	l   *simulator.DESLauncher
	v   *Virtualizer
}

func newHarness(t *testing.T, ctxs ...*model.Context) *harness {
	t.Helper()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := New(eng, l)
	l.Events = v
	for _, c := range ctxs {
		if err := v.AddContext(c, "DCL", nil); err != nil {
			t.Fatalf("AddContext(%s): %v", c.Name, err)
		}
	}
	return &harness{eng: eng, l: l, v: v}
}

// FileState reports whether a file is resident and/or promised: the
// tests' probe of one step, read the way front-ends read it.
func (v *Virtualizer) FileState(ctxName, filename string) (resident, promised bool, err error) {
	sub, files, err := watch(v, "", ctxName, []string{filename})
	if err != nil {
		return false, false, err
	}
	sub.Close()
	return files[0].Resident, files[0].Promised, nil
}

// watcher is a readiness stream in miniature, the tests' small stream
// owner: each watched step's event lands in a channel, which closes once
// every step Watch registered has delivered; Close withdraws the rest.
type watcher struct {
	hub   *notify.Hub
	owner *notify.Owner
	ch    chan notify.Event

	mu     sync.Mutex
	topics []notify.Topic // what Watch registered
	got    int            // events delivered
	closed bool
}

// watch is Virtualizer.Watch under a watcher of its own.
func watch(v *Virtualizer, client, ctxName string, names []string) (*watcher, []WatchedFile, error) {
	w := &watcher{hub: v.Hub(), ch: make(chan notify.Event, len(names))}
	w.owner = notify.NewStreamOwner(w.deliver)
	files, err := v.Watch(client, ctxName, names, w.owner, 1)
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range files {
		t := notify.Topic{Context: ctxName, Step: f.Step}
		if !f.Resident && !slices.Contains(w.topics, t) {
			w.topics = append(w.topics, t)
		}
	}
	w.closeIfDone()
	return w, files, err
}

// openAwait is OpenAwait with fn for the waiter, under an owner of its
// own: fn runs once with the step's fate if the open missed a promised
// step (Awaited), in the goroutine that delivers it.
func openAwait(v *Virtualizer, client, ctxName, file string, fn func(notify.Event)) (OpenResult, error) {
	return v.OpenAwait(client, ctxName, file, notify.NewOwner(func(_ uint64, ev notify.Event) { fn(ev) }), 0)
}

// watchFile is Watch of one file with fn for its waiter, under a stream
// owner of its own: a waiter that holds no reference. A resident file
// registers nothing.
func watchFile(v *Virtualizer, client, ctxName, file string, fn func(notify.Event)) (WatchedFile, error) {
	files, err := v.Watch(client, ctxName, []string{file}, notify.NewStreamOwner(func(_ uint64, ev notify.Event) { fn(ev) }), 0)
	if err != nil {
		return WatchedFile{}, err
	}
	return files[0], nil
}

// deliver may run before watch has counted the topics: the event of a
// step that resolved as soon as the shard unlocked.
func (w *watcher) deliver(_ uint64, ev notify.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.ch <- ev
		w.got++
		w.closeIfDone()
	}
}

func (w *watcher) closeIfDone() {
	if !w.closed && w.topics != nil && w.got == len(w.topics) {
		w.closed = true
		close(w.ch)
	}
}

func (w *watcher) C() <-chan notify.Event { return w.ch }

func (w *watcher) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hub.Withdraw(w.owner, 1, w.topics...)
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// testContext returns a small context: Δd=1, Δr=4, 100 steps, α=2s, τ=1s,
// 1-byte output steps, 40-byte cache (40 steps).
func testContext(name string) *model.Context {
	c := &model.Context{
		Name:               name,
		Grid:               model.Grid{DeltaD: 1, DeltaR: 4, Timesteps: 100},
		OutputBytes:        1,
		RestartBytes:       1,
		MaxCacheBytes:      40,
		Tau:                time.Second,
		Alpha:              2 * time.Second,
		DefaultParallelism: 1,
		MaxParallelism:     1,
		SMax:               4,
		NoPrefetch:         true, // most tests exercise the demand path
	}
	c.ApplyDefaults()
	return c
}

func TestAddContextValidation(t *testing.T) {
	h := newHarness(t)
	bad := testContext("bad")
	bad.Grid.DeltaD = 0
	if err := h.v.AddContext(bad, "DCL", nil); err == nil {
		t.Error("invalid context accepted")
	}
	good := testContext("good")
	if err := h.v.AddContext(good, "NOPE", nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := h.v.AddContext(good, "LRU", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.v.AddContext(good, "LRU", nil); err == nil {
		t.Error("duplicate context accepted")
	}
	up := testContext("down")
	up.Upstream = "missing"
	if err := h.v.AddContext(up, "LRU", nil); err == nil {
		t.Error("unknown upstream accepted")
	}
	// A storage area smaller than one output step could never hold a
	// file: every open would re-simulate, forever.
	tiny := testContext("tiny")
	tiny.OutputBytes, tiny.MaxCacheBytes = 8, 7
	if err := h.v.AddContext(tiny, "LRU", nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("storage area smaller than one step: AddContext = %v, want ErrInvalid", err)
	}
}

func TestOpenUnknowns(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	if _, err := h.v.Open("a1", "nope", ctx.Filename(1)); err == nil {
		t.Error("unknown context accepted")
	}
	if _, err := h.v.Open("a1", "c", "garbage"); err == nil {
		t.Error("unparseable filename accepted")
	}
	if _, err := h.v.Open("a1", "c", ctx.Filename(999)); err == nil {
		t.Error("out-of-range step accepted")
	}
}

func TestOpenHitAfterPreload(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	if err := h.v.Preload("c", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := h.v.Open("a1", "c", ctx.Filename(2))
	if err != nil || !res.Available {
		t.Fatalf("Open = %+v, %v", res, err)
	}
	st, _ := h.v.Stats("c")
	if st.Hits != 1 || st.Misses != 0 || st.Restarts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOpenMissTriggersResimAndNotifies(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	file := ctx.Filename(6) // interval (4,8]: restart at t=4, produces 5..8
	var ready []time.Duration
	res, err := openAwait(h.v, "a1", "c", file, func(st notify.Event) {
		if st.Err != "" {
			t.Errorf("unexpected error: %s", st.Err)
		}
		ready = append(ready, h.eng.Now())
	})
	if err != nil || res.Available || !res.Awaited {
		t.Fatalf("Open = %+v, %v", res, err)
	}
	if res.EstWait <= 0 {
		t.Error("miss should estimate a wait")
	}
	h.eng.Run(0)
	if len(ready) != 1 {
		t.Fatalf("waiter fired %d times", len(ready))
	}
	// α=2s + 2 steps (5,6) at 1s = 4s.
	if ready[0] != 4*time.Second {
		t.Errorf("file ready at %v, want 4s", ready[0])
	}
	st, _ := h.v.Stats("c")
	if st.DemandRestarts != 1 || st.StepsProduced != 4 {
		t.Errorf("stats = %+v (want 1 restart producing steps 5..8)", st)
	}
	// Second open is now a hit.
	res, _ = h.v.Open("a1", "c", file)
	if !res.Available {
		t.Error("file should be resident after production")
	}
}

func TestOpenJoinsRunningSimulation(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Open("a1", "c", ctx.Filename(5))
	h.v.Open("a2", "c", ctx.Filename(6)) // same interval: must not relaunch
	h.eng.Run(0)
	st, _ := h.v.Stats("c")
	if st.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (second open joins)", st.Restarts)
	}
}

// A hit answers at once and registers no waiter: there is nothing to
// wait for.
func TestOpenAwaitOnResidentRegistersNothing(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1})
	fired := false
	res, err := openAwait(h.v, "a1", "c", ctx.Filename(1), func(notify.Event) { fired = true })
	if err != nil || !res.Available || res.Awaited {
		t.Fatalf("OpenAwait on a resident file = %+v, %v; want available, not awaited", res, err)
	}
	if ws := h.v.Hub().Waiters("c"); len(ws) != 0 || fired {
		t.Errorf("waiters after a hit: %+v (fired %v), want none", ws, fired)
	}
}

func TestReleaseAndRefcounts(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1})
	file := ctx.Filename(1)
	h.v.Open("a1", "c", file)
	h.v.Open("a2", "c", file)
	if err := h.v.Release("a1", "c", file); err != nil {
		t.Fatal(err)
	}
	if err := h.v.Release("a2", "c", file); err != nil {
		t.Fatal(err)
	}
	if err := h.v.Release("a2", "c", file); err == nil {
		t.Error("over-release should fail")
	}
}

func TestPinnedFilesSurviveEviction(t *testing.T) {
	ctx := testContext("c")
	ctx.MaxCacheBytes = 4 // 4 steps
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1, 2, 3, 4})
	h.v.Open("a1", "c", ctx.Filename(1)) // pin step 1
	// Produce steps 9..12, evicting three unpinned entries.
	h.v.Open("a1", "c", ctx.Filename(10))
	h.eng.Run(0)
	res, _ := h.v.Open("a1", "c", ctx.Filename(1))
	if !res.Available {
		t.Error("pinned step 1 was evicted")
	}
	st, _ := h.v.Stats("c")
	if st.Evictions == 0 {
		t.Error("expected evictions")
	}
	t.Run("produced twice while referenced", pinnedStepProducedTwice)
}

// Two simulations produce the same step while it is referenced: the
// second production must neither lose the protection nor add to what
// Release has to undo — there is one count, the shard's.
func pinnedStepProducedTwice(t *testing.T) {
	ctx := testContext("c")
	ctx.MaxCacheBytes = 2 // 2 steps
	h := newHarness(t, ctx)
	resident := func(step int) bool {
		t.Helper()
		r, _, err := h.v.FileState("c", ctx.Filename(step))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Two references on step 2; simulation A produces 1..4 at t=3..6 s.
	h.v.Open("a1", "c", ctx.Filename(2))
	h.v.Open("a2", "c", ctx.Filename(2))
	h.eng.RunUntil(5 * time.Second) // 1, 2 landed; 3 evicted the unreferenced 1
	if resident(1) || !resident(2) || !resident(3) {
		t.Fatalf("at 5s resident(1,2,3) = %v,%v,%v, want false,true,true", resident(1), resident(2), resident(3))
	}
	// Step 1 is gone and unpromised: this open starts simulation B over
	// 1..4 again, which produces the referenced step 2 a second time.
	h.v.Open("a1", "c", ctx.Filename(1))
	h.eng.Run(0)
	if st, _ := h.v.Stats("c"); st.Restarts != 2 || st.StepsProduced != 8 {
		t.Fatalf("restarts/steps = %d/%d, want two overlapping runs of four", st.Restarts, st.StepsProduced)
	}
	if !resident(2) {
		t.Fatal("referenced step 2 was evicted across the overlapping productions")
	}
	if err := h.v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// One Release per Open makes it evictable again — no third is owed.
	for _, client := range []string{"a1", "a2"} {
		if err := h.v.Release(client, "c", ctx.Filename(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.v.Release("a1", "c", ctx.Filename(2)); err == nil {
		t.Error("third release of a twice-opened step accepted")
	}
	h.v.Release("a1", "c", ctx.Filename(1))
	h.v.Open("a1", "c", ctx.Filename(10)) // 9..12 wash through the 2-step area
	h.eng.Run(0)
	if resident(2) {
		t.Error("step 2 still resident after its references were released and four steps washed through")
	}
}

func TestSMaxQueuesDemandLaunches(t *testing.T) {
	ctx := testContext("c")
	ctx.SMax = 2
	h := newHarness(t, ctx)
	// Three misses in three distinct restart intervals.
	// The third, interval (8,12], queues.
	done := map[int]time.Duration{}
	for _, s := range []int{2, 6, 10} {
		openAwait(h.v, "a1", "c", ctx.Filename(s), func(st notify.Event) { done[s] = h.eng.Now() })
	}
	h.eng.Run(0)
	if len(done) != 3 {
		t.Fatalf("only %d of 3 files produced", len(done))
	}
	// The third interval starts only after one of the first two ends
	// (each sim: α=2s + 4·1s = 6s; third ends ≥ 6+2+2 = 10s).
	if done[10] < 10*time.Second {
		t.Errorf("queued sim finished at %v, before capacity freed", done[10])
	}
	st, _ := h.v.Stats("c")
	if st.Restarts != 3 {
		t.Errorf("restarts = %d, want 3", st.Restarts)
	}
}

func TestSimFailureNotifiesWaiters(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.l.FailAt = faults.NewSimPlan().WithEvery(1).FailAt // every simulation crashes halfway
	file := ctx.Filename(4)
	var st *notify.Event
	openAwait(h.v, "a1", "c", file, func(s notify.Event) { st = &s })
	h.eng.Run(0)
	if st == nil {
		t.Fatal("waiter never notified")
	}
	if st.Err == "" {
		t.Error("failure should carry an error status")
	}
	stats, _ := h.v.Stats("c")
	if stats.Failures != 1 {
		t.Errorf("failures = %d", stats.Failures)
	}
}

func TestEstWait(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	h.v.Preload("c", []int{1})
	if w, err := h.v.EstWait("c", ctx.Filename(1)); err != nil || w != 0 {
		t.Errorf("resident EstWait = %v, %v", w, err)
	}
	h.v.Open("a1", "c", ctx.Filename(4))
	w, err := h.v.EstWait("c", ctx.Filename(4))
	if err != nil || w <= 0 {
		t.Errorf("missing EstWait = %v, %v", w, err)
	}
	// α=2s + 4·1s = 6s for step 4 (interval (0,4]).
	if w != 6*time.Second {
		t.Errorf("EstWait = %v, want 6s", w)
	}
	if _, err := h.v.EstWait("nope", "x"); err == nil {
		t.Error("unknown context accepted")
	}
}

func TestBitrep(t *testing.T) {
	ctx := testContext("c")
	h := newHarness(t, ctx)
	file := ctx.Filename(1)
	content := vfs.Content(file, 64)
	drv := simulator.NewSynthetic(ctx)
	if err := h.v.RegisterChecksum("c", file, drv.Checksum(content)); err != nil {
		t.Fatal(err)
	}
	same, err := h.v.Bitrep("c", file, content)
	if err != nil || !same {
		t.Errorf("Bitrep identical = %v, %v", same, err)
	}
	same, err = h.v.Bitrep("c", file, []byte("perturbed"))
	if err != nil || same {
		t.Errorf("Bitrep different = %v, %v", same, err)
	}
	if _, err := h.v.Bitrep("c", ctx.Filename(2), content); err == nil {
		t.Error("unregistered file should error")
	}
	if cs, _ := h.v.shardOf("c"); cs.checksums[1] != drv.Checksum(content) {
		t.Error("registered checksum not stored under the file's step")
	}
	if err := h.v.RegisterChecksum("c", "garbage", 1); err == nil {
		t.Error("bad filename accepted")
	}
}

func TestRescanStorageArea(t *testing.T) {
	ctx := testContext("c")
	area := vfs.NewMem()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := New(eng, l)
	l.Events = v
	if err := v.AddContext(ctx, "LRU", area); err != nil {
		t.Fatal(err)
	}
	// Files already in the area (daemon restart): 3 output steps, one
	// restart file, one foreign file and two output names past the
	// timeline's 100 steps (all four ignored).
	area.Create(ctx.Filename(1), 1)
	area.Create(ctx.Filename(2), 1)
	area.Create(ctx.Filename(3), 1)
	area.Create(ctx.RestartFilename(4), 1)
	area.Create("notes.txt", 1)
	area.Create(ctx.Filename(ctx.Grid.NumOutputSteps()+5), 1)
	area.Create(ctx.Filename(123456789), 1)
	n, err := v.RescanStorageArea("c")
	if err != nil || n != 3 {
		t.Fatalf("rescan = %d, %v", n, err)
	}
	if cs, _ := v.shardOf("c"); cs.cache.UsedBytes() != 3 {
		t.Errorf("cache holds %d bytes after the rescan, want the 3 steps on the timeline", cs.cache.UsedBytes())
	}
	res, _ := v.Open("a1", "c", ctx.Filename(2))
	if !res.Available {
		t.Error("rescanned file should be resident")
	}
	if _, err := v.RescanStorageArea("nope"); err == nil {
		t.Error("unknown context accepted")
	}
}

// A promised step that reaches the storage area from outside — an
// operator copied it in and rescanned, or it was preloaded — is settled
// like a produced one: the promise goes, waiters fire once with Ready,
// and the death of the simulation that had promised it no longer
// concerns them.
func TestOutsideArrivalSettlesPromise(t *testing.T) {
	for _, via := range []string{"rescan", "preload"} {
		for _, crash := range []bool{false, true} {
			name := via
			if crash {
				name += "/simulation-dies-later"
			}
			t.Run(name, func(t *testing.T) {
				ctx := testContext("c")
				area := vfs.NewMem()
				h := newHarness(t)
				if err := h.v.AddContext(ctx, "LRU", area); err != nil {
					t.Fatal(err)
				}
				if crash {
					h.l.FailAt = faults.NewSimPlan().WithCrashAt("c", 2, 0).FailAt
				}
				file := ctx.Filename(2)
				var got []notify.Event
				if res, err := openAwait(h.v, "a1", "c", file, func(st notify.Event) { got = append(got, st) }); err != nil || res.Available || !res.Awaited {
					t.Fatalf("Open = %+v, %v; want an awaited miss", res, err)
				}
				if via == "rescan" {
					area.Create(file, 1)
					if n, err := h.v.RescanStorageArea("c"); err != nil || n != 1 {
						t.Fatalf("rescan = %d, %v", n, err)
					}
				} else if err := h.v.Preload("c", []int{2}); err != nil {
					t.Fatal(err)
				}
				if resident, promised, _ := h.v.FileState("c", file); !resident || promised {
					t.Errorf("after arrival resident=%v promised=%v, want true/false", resident, promised)
				}
				if len(got) != 1 || got[0].Kind != notify.FileReady {
					t.Errorf("waiter after arrival: %+v, want one Ready", got)
				}
				if err := h.v.CheckInvariants(); err != nil {
					t.Error(err)
				}
				h.eng.Run(0)
				if len(got) != 1 || got[0].Kind != notify.FileReady {
					t.Errorf("waiter after the simulation ended: %+v, want the one Ready and nothing more", got)
				}
				if err := h.v.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestEvictionRemovesFromStorageArea(t *testing.T) {
	ctx := testContext("c")
	ctx.MaxCacheBytes = 2
	area := vfs.NewMem()
	eng := des.NewEngine()
	l := &simulator.DESLauncher{Engine: eng}
	v := New(eng, l)
	l.Events = v
	if err := v.AddContext(ctx, "LRU", area); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 3} {
		area.Create(ctx.Filename(s), 1)
	}
	v.RescanStorageArea("c") // inserts 1,2 then 3 evicts 1
	if got := len(area.List()); got != 2 {
		t.Errorf("storage area holds %d files, want 2 after eviction", got)
	}
}
