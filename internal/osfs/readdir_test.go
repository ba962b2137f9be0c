package osfs

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"padll/internal/posix"
)

// TestPathReaddirErrorsAndSymlinks pins the behaviour the path readdir
// must keep now that it issues its own open/getdents/close: a missing
// path is ENOENT, a regular file is ENOTDIR, a symlink to a directory
// lists its target, and an empty directory lists nothing.
func TestPathReaddirErrorsAndSymlinks(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)
	if err := os.MkdirAll(filepath.Join(root, "d", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d/b", "d/a", "file"} {
		if err := os.WriteFile(filepath.Join(root, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink("d", filepath.Join(root, "link")); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Readdir("/absent"); !errors.Is(err, posix.ErrNotExist) {
		t.Errorf("readdir of a missing path: %v, want ErrNotExist", err)
	}
	if _, err := c.Readdir("/file"); !errors.Is(err, posix.ErrNotDir) {
		t.Errorf("readdir of a regular file: %v, want ErrNotDir", err)
	}
	if entries, err := c.Readdir("/d/sub"); err != nil || len(entries) != 0 {
		t.Errorf("readdir of an empty directory: %v, %v", entries, err)
	}
	for _, p := range []string{"/d", "/link", "/d/../link/"} {
		entries, err := c.Readdir(p)
		if err != nil {
			t.Fatalf("readdir %s: %v", p, err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name)
			if e.IsDir != (e.Name == "sub") || e.Inode == 0 {
				t.Errorf("readdir %s: entry %+v", p, e)
			}
		}
		if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "sub" {
			t.Errorf("readdir %s = %v, want [a b sub]", p, got)
		}
	}
}

// TestPathReaddirLeaksNoDescriptors: the raw open has no finalizer to
// fall back on, so every path — success, ENOTDIR, ENOENT — must close
// what it opened. The count is of the descriptors open on the test's
// directory tree, which only the readdirs under test touch.
func TestPathReaddirLeaksNoDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	collectDropped()
	o, root := newFS(t)
	c := posix.NewClient(o)
	if err := os.Mkdir(filepath.Join(root, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d/a", "file"} {
		if err := os.WriteFile(filepath.Join(root, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Only descriptors on the test's tree count: the rest of the process
	// opens and closes descriptors of its own meanwhile.
	tree, err := filepath.EvalSymlinks(root)
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		names, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range names {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
			if err == nil && (target == tree || strings.HasPrefix(target, tree+"/")) {
				n++
			}
		}
		return n
	}
	before := openFDs()
	var entries []posix.DirEntry
	for i := 0; i < 1000; i++ {
		var err error
		if entries, err = c.ReaddirInto("/d", entries[:0]); err != nil || len(entries) != 1 {
			t.Fatalf("readdir: %v, %v", entries, err)
		}
		if _, err := c.Readdir("/file"); !errors.Is(err, posix.ErrNotDir) {
			t.Fatalf("readdir of a file: %v", err)
		}
		if _, err := c.Readdir("/absent"); !errors.Is(err, posix.ErrNotExist) {
			t.Fatalf("readdir of a missing path: %v", err)
		}
	}
	if after := openFDs(); after != before {
		t.Errorf("%d descriptors open after 1,000 readdirs, %d before", after, before)
	}
	if o.OpenFDs() != 0 {
		t.Errorf("%d virtual descriptors leaked", o.OpenFDs())
	}
}
