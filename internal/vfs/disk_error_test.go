package vfs

import (
	"strings"
	"testing"
)

// Error-path coverage for the disk-backed storage area: invalid names
// must never touch the file system, sizes must be validated, and missing
// files must fail loudly on Remove/Read while staying benign on the
// query methods.

func TestDiskRejectsInvalidNames(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"", ".", "..", "a/b", `a\b`, "/abs", "dir/../escape"}
	for _, name := range bad {
		if err := d.Create(name, 8); err == nil {
			t.Errorf("Create(%q) accepted an invalid name", name)
		}
		if err := d.WriteRaw(name, []byte("x")); err == nil {
			t.Errorf("WriteRaw(%q) accepted an invalid name", name)
		}
		if err := d.Remove(name); err == nil {
			t.Errorf("Remove(%q) accepted an invalid name", name)
		}
		if _, err := d.Read(name); err == nil {
			t.Errorf("Read(%q) accepted an invalid name", name)
		}
		if _, ok := d.Size(name); ok {
			t.Errorf("Size(%q) reported a size for an invalid name", name)
		}
	}
	// Invalid names must leave the directory untouched.
	if got := d.List(); len(got) != 0 {
		t.Errorf("directory not empty after invalid-name operations: %v", got)
	}
}

func TestDiskRejectsNegativeSize(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create("f", -1); err == nil {
		t.Fatal("Create with negative size accepted")
	}
	if _, ok := d.Size("f"); ok {
		t.Error("failed Create left a file behind")
	}
	// The atomic temp file must not leak either.
	if got := d.List(); len(got) != 0 {
		t.Errorf("leftover entries: %v", got)
	}
}

func TestDiskRemoveMissing(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = d.Remove("never-created")
	if err == nil {
		t.Fatal("Remove of a missing file reported success")
	}
	if !strings.Contains(err.Error(), "never-created") {
		t.Errorf("error %q does not name the file", err)
	}
	// Remove-after-remove keeps failing (no state corruption).
	if err := d.Create("f", 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("f"); err == nil {
		t.Error("second Remove of the same file reported success")
	}
}

func TestDiskReadMissing(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("ghost"); err == nil {
		t.Error("Read of a missing file reported success")
	}
	if _, ok := d.Size("ghost"); ok {
		t.Error("Size of a missing file reported ok")
	}
}

func TestDiskTempFilesInvisible(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create("visible", 16); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.List() {
		if strings.HasPrefix(n, ".simfs-tmp-") {
			t.Errorf("temp file %q leaked into List", n)
		}
	}
}
