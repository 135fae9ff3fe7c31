package vfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a storage area backed by a real directory. File contents are the
// same deterministic streams Mem synthesizes, actually written to disk, so
// the integration tests exercise real I/O paths (create, rename-into-place,
// remove) the way the daemon would against a parallel file system.
type Disk struct {
	dir string
	mu  sync.Mutex
}

// NewDisk creates (if needed) and wraps the given directory.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: creating storage area %q: %w", dir, err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", fmt.Errorf("vfs: invalid file name %q", name)
	}
	return filepath.Join(d.dir, name), nil
}

// Create implements FS: the file is written to a temporary name and
// renamed into place so concurrent observers never see partial files —
// mirroring the close-then-notify protocol of DVLib (paper Sec. III-A:
// "Once a file is closed, DVLib assumes that this file is ready on disk").
func (d *Disk) Create(name string, size int64) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative size %d for %q", size, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, ".simfs-tmp-*")
	if err != nil {
		return fmt.Errorf("vfs: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(Content(name, size)); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("vfs: writing %q: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("vfs: closing %q: %w", name, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("vfs: publishing %q: %w", name, err)
	}
	return nil
}

// WriteRaw writes explicit content under name (atomically, like Create).
// It is used to model non-reproducible simulators, whose re-simulated
// files differ from the deterministic stream.
func (d *Disk) WriteRaw(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, ".simfs-tmp-*")
	if err != nil {
		return fmt.Errorf("vfs: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("vfs: writing %q: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("vfs: closing %q: %w", name, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("vfs: publishing %q: %w", name, err)
	}
	return nil
}

// Size implements FS.
func (d *Disk) Size(name string) (int64, bool) {
	p, err := d.path(name)
	if err != nil {
		return 0, false
	}
	fi, err := os.Stat(p)
	if err != nil || !fi.Mode().IsRegular() {
		return 0, false
	}
	return fi.Size(), true
}

// Read implements FS.
func (d *Disk) Read(name string) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("vfs: reading %q: %w", name, err)
	}
	return b, nil
}

// Remove implements FS.
func (d *Disk) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("vfs: removing %q: %w", name, err)
	}
	return nil
}

// List implements FS.
func (d *Disk) List() []string {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".simfs-tmp-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
