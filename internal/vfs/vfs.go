// Package vfs is the storage substrate of the reproduction: the parallel
// file system the paper ran on (Lustre) reduced to what SimFS observes —
// named files with sizes inside per-context storage areas. Two
// implementations are provided: Mem, an in-memory area used by the
// virtual-time experiments, and Disk, a directory-backed area with real
// files used by the examples and integration tests. Both generate
// deterministic file contents so bitwise-reproducibility checks
// (SIMFS_Bitrep) are meaningful.
package vfs

import (
	"fmt"
	"sort"
	"sync"
)

// FS is one storage area: a flat namespace of files with sizes.
type FS interface {
	// Create writes a file of the given size with deterministic content
	// derived from its name. Creating an existing file overwrites it.
	Create(name string, size int64) error
	// WriteRaw writes explicit content under name, overwriting any file
	// there: a non-reproducible simulator's output, which differs from
	// the deterministic content.
	WriteRaw(name string, data []byte) error
	// Exists reports whether the file is present.
	Exists(name string) bool
	// Size returns the file's size.
	Size(name string) (int64, bool)
	// Read returns the file's content. Implementations may synthesize it
	// on the fly; it is deterministic for a given (name, size).
	Read(name string) ([]byte, error)
	// Remove deletes the file. Removing an absent file is an error.
	Remove(name string) error
	// List returns all file names in lexicographic order.
	List() []string
	// UsedBytes returns the total size of all files.
	UsedBytes() int64
}

// Mem is an in-memory storage area. It is safe for concurrent use. A
// file's content is synthesized from its name and size (Content) unless
// WriteRaw stored it.
type Mem struct {
	mu    sync.RWMutex
	sizes map[string]int64
	raw   map[string][]byte // WriteRaw's files
	used  int64
}

// NewMem returns an empty in-memory storage area.
func NewMem() *Mem {
	return &Mem{sizes: map[string]int64{}}
}

// Create implements FS.
func (m *Mem) Create(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d for %q", size, name)
	}
	return m.put(name, size, nil)
}

// WriteRaw implements FS: the content is kept as given.
func (m *Mem) WriteRaw(name string, data []byte) error {
	return m.put(name, int64(len(data)), append([]byte(nil), data...))
}

// put stores a file of size bytes, with explicit content when data is
// non-nil.
func (m *Mem) put(name string, size int64, data []byte) error {
	if name == "" {
		return fmt.Errorf("vfs: empty file name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.sizes[name]; ok {
		m.used -= old
	}
	m.sizes[name] = size
	m.used += size
	if data == nil {
		delete(m.raw, name)
		return nil
	}
	if m.raw == nil {
		m.raw = map[string][]byte{}
	}
	m.raw[name] = data
	return nil
}

// Exists implements FS.
func (m *Mem) Exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.sizes[name]
	return ok
}

// Size implements FS.
func (m *Mem) Size(name string) (int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sizes[name]
	return s, ok
}

// Read implements FS: content is synthesized deterministically, unless
// WriteRaw stored it.
func (m *Mem) Read(name string) ([]byte, error) {
	m.mu.RLock()
	size, ok := m.sizes[name]
	data, raw := m.raw[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vfs: %q does not exist", name)
	}
	if raw {
		return append([]byte(nil), data...), nil
	}
	return Content(name, size), nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	size, ok := m.sizes[name]
	if !ok {
		return fmt.Errorf("vfs: remove of absent file %q", name)
	}
	m.used -= size
	delete(m.sizes, name)
	delete(m.raw, name)
	return nil
}

// List implements FS.
func (m *Mem) List() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.sizes))
	for n := range m.sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// UsedBytes implements FS.
func (m *Mem) UsedBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

// Content deterministically synthesizes size bytes of pseudo-random
// content from a file name, using an xorshift generator seeded by an FNV
// hash of the name. Re-simulating a file therefore produces bitwise
// identical content — the reproducibility assumption of the paper — unless
// a caller deliberately perturbs it to model non-reproducible simulators.
func Content(name string, size int64) []byte {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	buf := make([]byte, size)
	x := h
	for i := range buf {
		// xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}
