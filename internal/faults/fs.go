package faults

import (
	"math/rand"
	"sync"

	"simfs/internal/vfs"
)

// FS wraps a storage area (vfs.Disk or vfs.Mem) and injects errors into
// the write path. A re-simulation whose output Create fails reports a
// Failed outcome to the DV core, so storage faults exercise exactly the
// retry/quarantine machinery a flaky parallel file system would.
type FS struct {
	inner vfs.FS

	mu       sync.Mutex
	rng      *rand.Rand
	prob     float64
	failN    int
	injected uint64
}

// WrapFS wraps a storage area: each Create, WriteRaw or Remove fails with
// probability prob, deterministically from seed and the call sequence.
func WrapFS(inner vfs.FS, seed int64, prob float64) *FS {
	return &FS{inner: inner, rng: seededRng(seed), prob: prob}
}

// FailNextN makes the next n write operations fail unconditionally, on
// top of the probabilistic schedule.
func (f *FS) FailNextN(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failN = n
}

// Injected returns how many operations failed by injection so far.
func (f *FS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

func (f *FS) inject(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failN > 0 {
		f.failN--
		f.injected++
		return &InjectedError{Op: op, Name: name}
	}
	if f.prob > 0 && f.rng.Float64() < f.prob {
		f.injected++
		return &InjectedError{Op: op, Name: name}
	}
	return nil
}

// Create implements vfs.FS.
func (f *FS) Create(name string, size int64) error {
	if err := f.inject("create", name); err != nil {
		return err
	}
	return f.inner.Create(name, size)
}

// WriteRaw implements vfs.FS.
func (f *FS) WriteRaw(name string, data []byte) error {
	if err := f.inject("write", name); err != nil {
		return err
	}
	return f.inner.WriteRaw(name, data)
}

// Size implements vfs.FS.
func (f *FS) Size(name string) (int64, bool) { return f.inner.Size(name) }

// Read implements vfs.FS.
func (f *FS) Read(name string) ([]byte, error) { return f.inner.Read(name) }

// Remove implements vfs.FS.
func (f *FS) Remove(name string) error {
	if err := f.inject("remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// List implements vfs.FS.
func (f *FS) List() []string { return f.inner.List() }
