package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMemFileBacksPath writes through the path memFile returns a link
// at and reads the bytes back from the in-memory file behind it.
func TestMemFileBacksPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev0.img")
	f, err := memFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.WriteFile(path, []byte("stair"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := f.ReadAt(got, 0); err != nil || string(got) != "stair" {
		t.Fatalf("memfd holds %q (%v), want the bytes written through %s", got, err, path)
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("%s is not a link to the memfd (%v, %v)", path, fi.Mode(), err)
	}
}
