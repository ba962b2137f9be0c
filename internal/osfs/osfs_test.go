package osfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
)

func newFS(t *testing.T) (*FS, string) {
	t.Helper()
	root := t.TempDir()
	o, err := New(root, clock.NewReal())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o, root
}

func TestNewValidatesRoot(t *testing.T) {
	if _, err := New(filepath.Join(t.TempDir(), "absent"), clock.NewReal()); !errors.Is(err, posix.ErrNotExist) {
		t.Errorf("missing root: %v", err)
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(f, clock.NewReal()); !errors.Is(err, posix.ErrNotDir) {
		t.Errorf("file root: %v", err)
	}
}

func TestCreateWriteReadClose(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)

	fd, err := c.Open("/a.txt", posix.OCreate|posix.ORdWr, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if n, err := c.Write(fd, []byte("hello osfs")); err != nil || n != 10 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if _, err := c.LSeek(fd, 0, 0); err != nil {
		t.Fatalf("lseek: %v", err)
	}
	data, err := c.Read(fd, 64)
	if err != nil || string(data) != "hello osfs" {
		t.Fatalf("read: %q err=%v", data, err)
	}
	// EOF reads return empty, not an error (libc semantics).
	data, err = c.Read(fd, 64)
	if err != nil || len(data) != 0 {
		t.Fatalf("read at EOF: %q err=%v", data, err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	if o.OpenFDs() != 0 {
		t.Errorf("fd leak: %d live", o.OpenFDs())
	}

	// The bytes really landed on the host file system.
	host, err := os.ReadFile(filepath.Join(root, "a.txt"))
	if err != nil || string(host) != "hello osfs" {
		t.Fatalf("host file: %q err=%v", host, err)
	}
}

func TestSizeOnlyWriteSynthesizesZeros(t *testing.T) {
	o, root := newFS(t)
	fd, err := posix.Do(o, &posix.Request{Op: posix.OpOpen, Path: "/z", Flags: posix.OCreate | posix.OWrOnly, Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := posix.Do(o, &posix.Request{Op: posix.OpWrite, FD: fd.FD, Size: 128})
	if err != nil || rep.N != 128 {
		t.Fatalf("size-only write: n=%d err=%v", rep.N, err)
	}
	// A payload longer than the zero page goes out in several writes.
	const long = int64(3*len(zeros) + 17)
	rep, err = posix.Do(o, &posix.Request{Op: posix.OpPWrite, FD: fd.FD, Size: long, Offset: 100})
	if err != nil || rep.N != long {
		t.Fatalf("long size-only pwrite: n=%d err=%v", rep.N, err)
	}
	if _, err := posix.Do(o, &posix.Request{Op: posix.OpClose, FD: fd.FD}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(root, "z"))
	if err != nil || info.Size() != 100+long {
		t.Fatalf("host size: %v err=%v", info, err)
	}
}

func TestStatFamily(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)
	if err := os.WriteFile(filepath.Join(root, "f"), []byte("1234"), 0o640); err != nil {
		t.Fatal(err)
	}

	fi, err := c.Stat("/f")
	if err != nil || fi.Size != 4 || fi.Mode.Perm() != 0o640 || fi.Mode.IsDir() {
		t.Fatalf("stat: %+v err=%v", fi, err)
	}
	if fi.Inode == 0 || fi.Nlink != 1 {
		t.Errorf("platform fields missing: inode=%d nlink=%d", fi.Inode, fi.Nlink)
	}

	fd, err := c.Open("/f", posix.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	ffi, err := c.FStat(fd)
	if err != nil || ffi.Size != 4 || ffi.Inode != fi.Inode {
		t.Fatalf("fstat: %+v err=%v", ffi, err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Stat("/absent"); !errors.Is(err, posix.ErrNotExist) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stat missing must match both vocabularies: %v", err)
	}
}

func TestDirectoryLifecycle(t *testing.T) {
	o, _ := newFS(t)
	c := posix.NewClient(o)

	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	for _, name := range []string{"/d/b", "/d/a", "/d/c"} {
		fd, err := c.Open(name, posix.OCreate|posix.OWrOnly, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}

	// Path-based listing is sorted.
	entries, err := c.Readdir("/d")
	if err != nil || len(entries) != 3 {
		t.Fatalf("readdir: %d entries, err=%v", len(entries), err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if entries[i].Name != want {
			t.Errorf("entry %d = %q, want %q", i, entries[i].Name, want)
		}
		if entries[i].Inode == 0 {
			t.Errorf("entry %q missing inode", entries[i].Name)
		}
	}

	// fd-based streaming yields one entry per call, then an empty reply.
	dfd, err := c.Opendir("/d")
	if err != nil {
		t.Fatalf("opendir: %v", err)
	}
	var streamed []string
	for {
		e, ok, err := c.ReaddirFD(dfd)
		if err != nil {
			t.Fatalf("readdir fd: %v", err)
		}
		if !ok {
			break
		}
		streamed = append(streamed, e.Name)
	}
	if len(streamed) != 3 || streamed[0] != "a" {
		t.Errorf("streamed: %v", streamed)
	}
	if err := c.Closedir(dfd); err != nil {
		t.Fatalf("closedir: %v", err)
	}

	// rmdir refuses non-empty, unlink refuses directories.
	if err := c.Rmdir("/d"); !errors.Is(err, posix.ErrNotEmpty) {
		t.Errorf("rmdir non-empty: %v", err)
	}
	if err := c.Unlink("/d"); !errors.Is(err, posix.ErrIsDir) {
		t.Errorf("unlink dir: %v", err)
	}
	for _, name := range []string{"/d/a", "/d/b", "/d/c"} {
		if err := c.Unlink(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Rmdir("/d"); err != nil {
		t.Errorf("rmdir empty: %v", err)
	}
}

func TestRenameLinkSymlink(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)
	if err := os.WriteFile(filepath.Join(root, "src"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := c.Rename("/src", "/dst"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := c.Stat("/src"); !errors.Is(err, posix.ErrNotExist) {
		t.Errorf("src still visible: %v", err)
	}

	if err := c.Link("/dst", "/hard"); err != nil {
		t.Fatalf("link: %v", err)
	}
	fi, err := c.Stat("/hard")
	if err != nil || fi.Nlink != 2 {
		t.Errorf("hard link nlink=%d err=%v", fi.Nlink, err)
	}

	// Absolute symlink targets are pinned inside the root and
	// virtualized back on readlink.
	if err := c.Symlink("/dst", "/ln"); err != nil {
		t.Fatalf("symlink: %v", err)
	}
	target, err := c.Readlink("/ln")
	if err != nil || target != "/dst" {
		t.Fatalf("readlink: %q err=%v", target, err)
	}
	hostTarget, err := os.Readlink(filepath.Join(root, "ln"))
	if err != nil || hostTarget != filepath.Join(root, "dst") {
		t.Fatalf("host target escaped the root: %q err=%v", hostTarget, err)
	}
	// Following the link through the boundary works.
	if fi, err := c.Stat("/ln"); err != nil || fi.Size != 1 {
		t.Errorf("stat through symlink: %+v err=%v", fi, err)
	}
	rep, err := posix.Do(o, &posix.Request{Op: posix.OpLStat, Path: "/ln"})
	if err != nil || rep.Info.Size == 1 {
		t.Errorf("lstat must not follow: %+v err=%v", rep, err)
	}
}

func TestTraversalStaysRooted(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)

	// A secret outside the root must be unreachable via "..".
	outside := filepath.Join(filepath.Dir(root), "secret-"+filepath.Base(root))
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)

	for _, p := range []string{"/../" + filepath.Base(outside), "/a/../../" + filepath.Base(outside), "../" + filepath.Base(outside)} {
		if _, err := c.Stat(p); !errors.Is(err, posix.ErrNotExist) {
			t.Errorf("path %q escaped the root: %v", p, err)
		}
	}

	// ".." clamps to the root itself.
	if fi, err := c.Stat("/.."); err != nil || !fi.Mode.IsDir() {
		t.Errorf("stat /..: %+v err=%v", fi, err)
	}
}

func TestChmodChownUtimeTruncate(t *testing.T) {
	now := time.Unix(1700000000, 0)
	root := t.TempDir()
	o, err := New(root, clock.NewSim(now))
	if err != nil {
		t.Fatal(err)
	}
	c := posix.NewClient(o)
	if err := os.WriteFile(filepath.Join(root, "f"), []byte("123456"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := c.Chmod("/f", 0o600); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	fi, err := c.Stat("/f")
	if err != nil || fi.Mode.Perm() != 0o600 {
		t.Fatalf("mode after chmod: %+v err=%v", fi, err)
	}

	// utime stamps through the injected clock, not the wall clock.
	if err := c.Utime("/f"); err != nil {
		t.Fatalf("utime: %v", err)
	}
	fi, err = c.Stat("/f")
	if err != nil || !fi.ModTime.Equal(now) {
		t.Fatalf("mtime = %v, want sim clock %v (err=%v)", fi.ModTime, now, err)
	}

	if err := c.Truncate("/f", 2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if fi, _ := c.Stat("/f"); fi.Size != 2 {
		t.Errorf("size after truncate: %d", fi.Size)
	}

	fd, err := c.Open("/f", posix.ORdWr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FTruncate(fd, 0); err != nil {
		t.Fatalf("ftruncate: %v", err)
	}
	if err := c.FSync(fd); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if fi, _ := c.Stat("/f"); fi.Size != 0 {
		t.Errorf("size after ftruncate: %d", fi.Size)
	}
}

func TestStatFS(t *testing.T) {
	o, _ := newFS(t)
	rep, err := posix.Do(o, &posix.Request{Op: posix.OpStatFS, Path: "/"})
	if err != nil {
		t.Fatalf("statfs: %v", err)
	}
	if rep.Stat.TotalBytes <= 0 {
		t.Skip("platform statfs not wired; portable stub in use")
	}
	if rep.Stat.FreeBytes > rep.Stat.TotalBytes {
		t.Errorf("free %d > total %d", rep.Stat.FreeBytes, rep.Stat.TotalBytes)
	}
}

func TestXattrs(t *testing.T) {
	o, _ := newFS(t)
	c := posix.NewClient(o)
	fd, err := c.Open("/x", posix.OCreate|posix.OWrOnly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	if err := c.SetXAttr("/x", "user.padll", []byte("v1")); err != nil {
		if errors.Is(err, posix.ErrNotSupported) {
			t.Skip("xattrs unsupported on this platform/filesystem")
		}
		t.Fatalf("setxattr: %v", err)
	}
	v, err := c.GetXAttr("/x", "user.padll")
	if err != nil || string(v) != "v1" {
		t.Fatalf("getxattr: %q err=%v", v, err)
	}
	names, err := c.ListXAttr("/x")
	if err != nil || len(names) == 0 {
		t.Fatalf("listxattr: %v err=%v", names, err)
	}
	if err := c.RemoveXAttr("/x", "user.padll"); err != nil {
		t.Fatalf("removexattr: %v", err)
	}
	if _, err := c.GetXAttr("/x", "user.padll"); !errors.Is(err, posix.ErrNoAttr) {
		t.Errorf("get after remove: %v", err)
	}
}

// TestFGetXAttrFollowsTheDescriptor: fgetxattr reads the open file, not
// whatever the path it was opened by names now.
func TestFGetXAttrFollowsTheDescriptor(t *testing.T) {
	o, _ := newFS(t)
	c := posix.NewClient(o)
	fd, err := c.Creat("/x", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetXAttr("/x", "user.padll", []byte("v1")); err != nil {
		if errors.Is(err, posix.ErrNotSupported) {
			t.Skip("xattrs unsupported on this filesystem")
		}
		t.Fatalf("setxattr: %v", err)
	}
	fget := func(when string) {
		rep, err := posix.Do(o, &posix.Request{Op: posix.OpFGetXAttr, FD: fd, Name: "user.padll"})
		if err != nil || string(rep.Data) != "v1" {
			t.Errorf("fgetxattr %s: %v, want v1", when, err)
		}
	}
	if err := c.Rename("/x", "/y"); err != nil {
		t.Fatal(err)
	}
	fget("after a rename")
	if fd2, err := c.Creat("/x", 0o644); err != nil || c.Close(fd2) != nil {
		t.Fatal(err)
	}
	fget("with another file under the old name")
	if err := c.Unlink("/y"); err != nil {
		t.Fatal(err)
	}
	fget("after the unlink")
	if _, err := posix.Do(o, &posix.Request{Op: posix.OpFGetXAttr, FD: fd, Name: "user.absent"}); !errors.Is(err, posix.ErrNoAttr) {
		t.Errorf("fgetxattr of a missing attribute: %v, want ErrNoAttr", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestBadFDAndInvalid(t *testing.T) {
	o, _ := newFS(t)
	c := posix.NewClient(o)
	if _, err := c.Read(99, 8); !errors.Is(err, posix.ErrBadFD) {
		t.Errorf("read bad fd: %v", err)
	}
	if err := c.Close(99); !errors.Is(err, posix.ErrBadFD) {
		t.Errorf("close bad fd: %v", err)
	}
	if err := c.Truncate("/nope/deeper", -1); !errors.Is(err, posix.ErrInvalid) {
		t.Errorf("negative truncate: %v", err)
	}
	if _, err := posix.Do(o, &posix.Request{Op: posix.OpLSeek, FD: 99}); !errors.Is(err, posix.ErrBadFD) {
		t.Errorf("lseek bad fd: %v", err)
	}
}
