package faults

import (
	"errors"
	"net"
	"testing"

	"simfs/internal/vfs"
)

func TestSimPlanCrashAtAndHeal(t *testing.T) {
	p := NewSimPlan().WithFailN("cosmo", 5, 2, 1)
	// First two launches covering step 5 crash after producing one step.
	if got := p.FailAt("cosmo", 4, 8); got != 5 {
		t.Fatalf("first attempt: crash at %d, want 5", got)
	}
	if got := p.FailAt("cosmo", 4, 8); got != 5 {
		t.Fatalf("second attempt: crash at %d, want 5", got)
	}
	// Third attempt heals.
	if got := p.FailAt("cosmo", 4, 8); got != -1 {
		t.Fatalf("third attempt: crash at %d, want healthy (-1)", got)
	}
	// Other contexts and non-matching ranges never crash.
	if got := p.FailAt("flash", 4, 8); got != -1 {
		t.Fatalf("other context crashed at %d", got)
	}
	if got := p.FailAt("cosmo", 9, 12); got != -1 {
		t.Fatalf("non-covering range crashed at %d", got)
	}
	if p.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", p.Injected())
	}
}

func TestSimPlanPermanentAndEvery(t *testing.T) {
	perm := NewSimPlan().WithCrashAt("", -1, 0)
	for i := 0; i < 5; i++ {
		if got := perm.FailAt("any", 0, 9); got != 0 {
			t.Fatalf("permanent plan: crash at %d, want 0", got)
		}
	}
	every := NewSimPlan().WithEvery(2)
	var crashes int
	for i := 0; i < 10; i++ {
		if every.FailAt("c", 0, 9) >= 0 {
			crashes++
		}
	}
	if crashes != 5 {
		t.Fatalf("every(2): %d crashes in 10 launches, want 5", crashes)
	}
}

func TestSimPlanRandomDeterministic(t *testing.T) {
	run := func() []int {
		p := NewSimPlan().WithRandom(42, 0.5)
		out := make([]int, 20)
		for i := range out {
			out[i] = p.FailAt("c", 0, 9)
		}
		return out
	}
	a, b := run(), run()
	var crashed bool
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at launch %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] >= 0 {
			crashed = true
			if a[i] > 9 {
				t.Fatalf("crash step %d outside range", a[i])
			}
		}
	}
	if !crashed {
		t.Fatal("seeded random plan with prob 0.5 never crashed in 20 launches")
	}
}

func TestFSInjection(t *testing.T) {
	fs := WrapFS(vfs.NewMem(), 1, 0)
	fs.FailNextN(1)
	err := fs.Create("a", 10)
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want InjectedError, got %v", err)
	}
	if _, ok := fs.Size("a"); ok {
		t.Fatal("failed create must not materialize the file")
	}
	if err := fs.Create("a", 10); err != nil {
		t.Fatalf("second create: %v", err)
	}
	if s, ok := fs.Size("a"); !ok || s != 10 {
		t.Fatal("pass-through create did not land")
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}

	// Probabilistic schedule is deterministic per seed.
	count := func(seed int64) uint64 {
		f := WrapFS(vfs.NewMem(), seed, 0.5)
		for i := 0; i < 50; i++ {
			f.Create("x", 1) //nolint:errcheck
		}
		return f.Injected()
	}
	if count(7) != count(7) {
		t.Fatal("same seed produced different injection counts")
	}
	if count(7) == 0 {
		t.Fatal("prob 0.5 never injected in 50 ops")
	}
}

func TestConnPlanCutAfter(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	plan := &ConnPlan{Seed: 3, CutAfter: 2}
	fc := plan.Wrap(server)

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		client.Read(buf) //nolint:errcheck
		client.Read(buf) //nolint:errcheck
		client.Close()
	}()

	if _, err := fc.Write([]byte("hello")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := fc.Write([]byte("world")); err == nil {
		t.Fatal("second write should be cut")
	}
	if _, err := fc.Write([]byte("dead")); err == nil {
		t.Fatal("writes after the cut must keep failing")
	}
	<-done
	if plan.Injected() == 0 {
		t.Fatal("plan did not record the cut")
	}
}

func TestConnPlanNoScheduleIsPassthrough(t *testing.T) {
	_, server := net.Pipe()
	defer server.Close()
	var plan *ConnPlan
	if plan.Wrap(server) != server {
		t.Fatal("nil plan must return the conn unchanged")
	}
	empty := &ConnPlan{}
	if empty.Wrap(server) != server {
		t.Fatal("empty plan must return the conn unchanged")
	}
}
