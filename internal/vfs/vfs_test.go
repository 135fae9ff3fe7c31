package vfs

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

// conformance runs the shared FS contract against any implementation.
func conformance(t *testing.T, fs FS) {
	t.Helper()
	if _, ok := fs.Size("a"); ok {
		t.Fatal("fresh FS should be empty")
	}
	if err := fs.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if s, ok := fs.Size("a"); !ok || s != 100 {
		t.Fatalf("Size = %d,%v", s, ok)
	}
	// Overwrite replaces the size.
	if err := fs.Create("a", 50); err != nil {
		t.Fatal(err)
	}
	if s, _ := fs.Size("a"); s != 50 {
		t.Fatalf("Size after overwrite = %d", s)
	}
	if err := fs.Create("b", 25); err != nil {
		t.Fatal(err)
	}
	list := fs.List()
	if len(list) != 2 || list[0] != "a" || list[1] != "b" {
		t.Fatalf("List = %v", list)
	}
	// Deterministic content.
	c1, err := fs.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := fs.Read("a")
	if !bytes.Equal(c1, c2) || int64(len(c1)) != 50 {
		t.Fatal("content not deterministic or wrong length")
	}
	if _, err := fs.Read("ghost"); err == nil {
		t.Error("read of absent file should fail")
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err == nil {
		t.Error("double remove should fail")
	}
	if _, ok := fs.Size("a"); ok {
		t.Error("removed file still present")
	}
	if err := fs.Create("", 1); err == nil {
		t.Error("empty name should fail")
	}
	if err := fs.Create("c", -1); err == nil {
		t.Error("negative size should fail")
	}
	// WriteRaw's content reads back as written and counts its length;
	// a later Create returns the file to deterministic content.
	if err := fs.WriteRaw("b", []byte("perturbed")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Read("b"); err != nil || string(got) != "perturbed" {
		t.Fatalf("after WriteRaw: %q, %v", got, err)
	}
	if s, _ := fs.Size("b"); s != 9 {
		t.Fatalf("Size after WriteRaw = %d, want 9", s)
	}
	if err := fs.Create("b", 25); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.Read("b"); !bytes.Equal(got, Content("b", 25)) {
		t.Error("Create after WriteRaw kept the raw content")
	}
}

func TestMemConformance(t *testing.T) { conformance(t, NewMem()) }

func TestDiskConformance(t *testing.T) {
	d, err := NewDisk(t.TempDir() + "/area")
	if err != nil {
		t.Fatal(err)
	}
	conformance(t, d)
}

func TestDiskRejectsPathEscape(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../evil", "a/b", "..", "."} {
		if err := d.Create(bad, 1); err == nil {
			t.Errorf("Create(%q) should fail", bad)
		}
	}
}

func TestContentDeterministicAndDistinct(t *testing.T) {
	a1 := Content("file_a", 256)
	a2 := Content("file_a", 256)
	b := Content("file_b", 256)
	if !bytes.Equal(a1, a2) {
		t.Error("same name must give identical content")
	}
	if bytes.Equal(a1, b) {
		t.Error("different names should give different content")
	}
	if len(Content("x", 0)) != 0 {
		t.Error("zero size should give empty content")
	}
}

// Property: Mem and Disk synthesize identical content for identical names,
// so checksums agree across storage backends.
func TestContentCrossBackendProperty(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMem()
	f := func(tag uint16, sz uint8) bool {
		name := "f_" + string(rune('a'+tag%26)) + string(rune('a'+(tag/26)%26))
		size := int64(sz)
		if err := d.Create(name, size); err != nil {
			return false
		}
		if err := m.Create(name, size); err != nil {
			return false
		}
		cd, err1 := d.Read(name)
		cm, err2 := m.Read(name)
		return err1 == nil && err2 == nil && bytes.Equal(cd, cm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	m := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				m.Create(name, int64(i))
				m.Size(name)
				m.List()
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.List()); got != 8 {
		t.Errorf("files after concurrent churn = %d, want 8", got)
	}
}

func TestDiskListSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Create("real", 10)
	// Simulate a leftover temp file from a crashed writer.
	if err := writeFile(dir+"/.simfs-tmp-zzz", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	list := d.List()
	if len(list) != 1 || list[0] != "real" {
		t.Errorf("List = %v, temp files must be hidden", list)
	}
}
