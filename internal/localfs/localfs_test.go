package localfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func newFS() (*FS, *posix.Client) {
	fs := New(clock.NewSim(epoch))
	return fs, posix.NewClient(fs)
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	_, c := newFS()
	fd, err := c.Open("/f.txt", posix.OCreate|posix.ORdWr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LSeek(fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := c.Read(fd, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("read %q, want %q", data, "hello world")
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestOpenNonexistentFails(t *testing.T) {
	_, c := newFS()
	if _, err := c.Open("/missing", posix.ORdOnly, 0); err != posix.ErrNotExist {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

func TestOpenExclFailsOnExisting(t *testing.T) {
	_, c := newFS()
	mustCreat(t, c, "/f")
	if _, err := c.Open("/f", posix.OCreate|posix.OExcl, 0o644); err != posix.ErrExist {
		t.Errorf("err = %v, want ErrExist", err)
	}
}

func TestOpenTruncClearsData(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, []byte("data")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	fd2, err := c.Open("/f", posix.ORdWr|posix.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.FStat(fd2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 0 {
		t.Errorf("size after O_TRUNC = %d, want 0", info.Size)
	}
}

func TestAppendMode(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/log")
	if _, err := c.Write(fd, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	fd2, err := c.Open("/log", posix.OWrOnly|posix.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd2, []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd2)
	if got := readAll(t, c, "/log"); got != "aaabbb" {
		t.Errorf("content = %q, want aaabbb", got)
	}
}

func TestPReadPWriteDoNotMoveOffset(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("XY"), 2); err != nil {
		t.Fatal(err)
	}
	got, err := c.PRead(fd, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01XY" {
		t.Errorf("pread = %q, want 01XY", got)
	}
	// The sequential offset must still be at 10.
	if n, err := c.LSeek(fd, 0, 1); err != nil || n != 10 {
		t.Errorf("offset = %d,%v, want 10", n, err)
	}
}

func TestReadPastEOF(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	data, err := c.Read(fd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("read %d bytes from empty file", len(data))
	}
}

func TestLSeekWhence(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.LSeek(fd, 2, 0); n != 2 {
		t.Errorf("SEEK_SET = %d", n)
	}
	if n, _ := c.LSeek(fd, 3, 1); n != 5 {
		t.Errorf("SEEK_CUR = %d", n)
	}
	if n, _ := c.LSeek(fd, -1, 2); n != 9 {
		t.Errorf("SEEK_END = %d", n)
	}
	if _, err := c.LSeek(fd, -100, 0); err != posix.ErrInvalid {
		t.Errorf("negative seek err = %v", err)
	}
	if _, err := c.LSeek(fd, 0, 9); err != posix.ErrInvalid {
		t.Errorf("bad whence err = %v", err)
	}
}

func TestStatAndGetAttr(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	for _, stat := range []func(string) (posix.FileInfo, error){c.Stat, c.GetAttr} {
		info, err := stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		if info.Size != 3 || info.Mode.IsDir() || info.Name != "f" {
			t.Errorf("info = %+v", info)
		}
	}
}

func TestMkdirRmdirReaddir(t *testing.T) {
	_, c := newFS()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != posix.ErrExist {
		t.Errorf("duplicate mkdir err = %v", err)
	}
	mustCreat(t, c, "/d/x")
	mustCreat(t, c, "/d/y")
	if err := c.Mkdir("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := c.Readdir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	if entries[0].Name != "sub" || !entries[0].IsDir {
		t.Errorf("entries not sorted/typed: %+v", entries)
	}
	if err := c.Rmdir("/d"); err != posix.ErrNotEmpty {
		t.Errorf("rmdir non-empty err = %v", err)
	}
	if err := c.Rmdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/d/x"); err != posix.ErrNotDir {
		t.Errorf("rmdir on file err = %v", err)
	}
}

func TestOpendirStreamingReaddir(t *testing.T) {
	fs, c := newFS()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustCreat(t, c, "/d/a")
	mustCreat(t, c, "/d/b")
	rep, err := posix.Do(fs, &posix.Request{Op: posix.OpOpendir, Path: "/d"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		r, err := posix.Do(fs, &posix.Request{Op: posix.OpReaddir, FD: rep.FD})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Entries) == 0 {
			break
		}
		names = append(names, r.Entries[0].Name)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("streamed names = %v", names)
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpClosedir, FD: rep.FD}); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/a")
	if _, err := c.Write(fd, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a"); err != posix.ErrNotExist {
		t.Errorf("old path still exists: %v", err)
	}
	if got := readAll(t, c, "/b"); got != "payload" {
		t.Errorf("renamed content = %q", got)
	}
}

func TestRenameOverExisting(t *testing.T) {
	fs, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/a"))
	mustClose(t, c, mustCreat(t, c, "/b"))
	before := fs.FileCount()
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if got := fs.FileCount(); got != before-1 {
		t.Errorf("file count = %d, want %d (target replaced)", got, before-1)
	}
}

func TestRenameDirectoryBelowItself(t *testing.T) {
	_, c := newFS()
	for _, d := range []string{"/d", "/d/s"} {
		if err := c.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []string{"/d/s", "/d/s/x", "/d/new"} {
		if err := c.Rename("/d", to); err != posix.ErrInvalid {
			t.Errorf("rename(/d, %s) = %v, want ErrInvalid", to, err)
		}
	}
	if entries, err := c.Readdir("/d"); err != nil || len(entries) != 1 {
		t.Errorf("readdir(/d) = %v, %v; the tree must be as it was", entries, err)
	}
}

// Rename onto an existing name releases the victim's inode and bytes only
// when that was its last name, and never when the victim is the source.
func TestRenameOverAccounting(t *testing.T) {
	cases := []struct {
		name      string
		setup     func(t *testing.T, c *posix.Client)
		from, to  string
		wantFiles int64  // FileCount after the rename
		wantUsed  int64  // bytes in use after the rename
		survivor  string // a name whose content must be intact
		size      int    // and its length
	}{
		{
			name:  "onto itself",
			setup: func(t *testing.T, c *posix.Client) {},
			from:  "/a", to: "/a",
			wantFiles: 1, wantUsed: 1000, survivor: "/a", size: 1000,
		},
		{
			name: "over one of two links",
			setup: func(t *testing.T, c *posix.Client) {
				writeFile(t, c, "/b", 300)
				if err := c.Link("/b", "/b2"); err != nil {
					t.Fatal(err)
				}
			},
			from: "/a", to: "/b",
			wantFiles: 2, wantUsed: 1300, survivor: "/b2", size: 300,
		},
		{
			name:  "over a sole link",
			setup: func(t *testing.T, c *posix.Client) { writeFile(t, c, "/b", 300) },
			from:  "/a", to: "/b",
			wantFiles: 1, wantUsed: 1000, survivor: "/b", size: 1000,
		},
		{
			name: "over a symlink",
			setup: func(t *testing.T, c *posix.Client) {
				if err := c.Symlink("/a", "/b"); err != nil {
					t.Fatal(err)
				}
			},
			from: "/a", to: "/b",
			wantFiles: 1, wantUsed: 1000, survivor: "/b", size: 1000,
		},
		{
			name: "directory over an empty directory",
			setup: func(t *testing.T, c *posix.Client) {
				for _, d := range []string{"/d", "/e"} {
					if err := c.Mkdir(d, 0o755); err != nil {
						t.Fatal(err)
					}
				}
			},
			from: "/d", to: "/e",
			wantFiles: 2, wantUsed: 1000, survivor: "/a", size: 1000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, c := newFS()
			st0, _ := c.StatFS("/")
			writeFile(t, c, "/a", 1000)
			tc.setup(t, c)
			if err := c.Rename(tc.from, tc.to); err != nil {
				t.Fatal(err)
			}
			if got := fs.FileCount(); got != tc.wantFiles {
				t.Errorf("FileCount = %d, want %d", got, tc.wantFiles)
			}
			st, _ := c.StatFS("/")
			if used := st0.FreeBytes - st.FreeBytes; used != tc.wantUsed {
				t.Errorf("bytes in use = %d, want %d", used, tc.wantUsed)
			}
			if got := readAll(t, c, tc.survivor); len(got) != tc.size {
				t.Errorf("%s holds %d bytes, want %d", tc.survivor, len(got), tc.size)
			}
		})
	}
}

func writeFile(t *testing.T, c *posix.Client, path string, size int) {
	t.Helper()
	fd := mustCreat(t, c, path)
	if _, err := c.Write(fd, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
}

func TestUnlink(t *testing.T) {
	fs, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/f"))
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/f"); err != posix.ErrNotExist {
		t.Errorf("stat after unlink: %v", err)
	}
	if err := c.Unlink("/f"); err != posix.ErrNotExist {
		t.Errorf("double unlink err = %v", err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/d"); err != posix.ErrIsDir {
		t.Errorf("unlink dir err = %v", err)
	}
	if fs.FileCount() != 1 {
		t.Errorf("file count = %d, want 1", fs.FileCount())
	}
}

func TestHardLink(t *testing.T) {
	fs, c := newFS()
	fd := mustCreat(t, c, "/a")
	if _, err := c.Write(fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpLink, Path: "/a", NewPath: "/b"}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/b")
	if err != nil {
		t.Fatal(err)
	}
	if info.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", info.Nlink)
	}
	if err := c.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, c, "/b"); got != "x" {
		t.Errorf("content via second link = %q", got)
	}
}

func TestSymlinkReadlink(t *testing.T) {
	fs, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/target"))
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpSymlink, Path: "/target", NewPath: "/ln"}); err != nil {
		t.Fatal(err)
	}
	rep, err := posix.Do(fs, &posix.Request{Op: posix.OpReadlink, Path: "/ln"})
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Data) != "/target" {
		t.Errorf("readlink = %q", rep.Data)
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpReadlink, Path: "/target"}); err != posix.ErrInvalid {
		t.Errorf("readlink on regular file err = %v", err)
	}
}

func TestTruncateGrowAndShrink(t *testing.T) {
	_, c := newFS()
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, fd)
	if err := c.Truncate("/f", 3); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, c, "/f"); got != "abc" {
		t.Errorf("after shrink = %q", got)
	}
	if err := c.Truncate("/f", 5); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, c, "/f"); got != "abc\x00\x00" {
		t.Errorf("after grow = %q", got)
	}
	if err := c.Truncate("/f", -1); err != posix.ErrInvalid {
		t.Errorf("negative truncate err = %v", err)
	}
}

func TestXAttrs(t *testing.T) {
	_, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/f"))
	if err := c.SetXAttr("/f", "user.k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetXAttr("/f", "user.k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetXAttr("/f", "user.k1")
	if err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Errorf("getxattr = %q, %v", v, err)
	}
	names, err := c.ListXAttr("/f")
	if err != nil || len(names) != 2 || names[0] != "user.k1" {
		t.Errorf("listxattr = %v, %v", names, err)
	}
	if err := c.RemoveXAttr("/f", "user.k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetXAttr("/f", "user.k1"); err != posix.ErrNoAttr {
		t.Errorf("getxattr after remove err = %v", err)
	}
	if err := c.RemoveXAttr("/f", "user.k1"); err != posix.ErrNoAttr {
		t.Errorf("double removexattr err = %v", err)
	}
}

func TestStatFSAccounting(t *testing.T) {
	_, c := newFS()
	st0, err := c.StatFS("/")
	if err != nil {
		t.Fatal(err)
	}
	fd := mustCreat(t, c, "/f")
	if _, err := c.Write(fd, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	st1, err := c.StatFS("/")
	if err != nil {
		t.Fatal(err)
	}
	if st1.FreeBytes != st0.FreeBytes-1000 {
		t.Errorf("free bytes = %d, want %d", st1.FreeBytes, st0.FreeBytes-1000)
	}
	if st1.FreeFiles != st0.FreeFiles-1 {
		t.Errorf("free files = %d, want %d", st1.FreeFiles, st0.FreeFiles-1)
	}
}

func TestChmodChownUtime(t *testing.T) {
	fs, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/f"))
	if err := c.SetAttr("/f", 0o600); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	if info.Mode.Perm() != 0o600 {
		t.Errorf("mode = %o", info.Mode.Perm())
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpChown, Path: "/f", Offset: 7, Size: 8}); err != nil {
		t.Fatal(err)
	}
	info, _ = c.Stat("/f")
	if info.UID != 7 || info.GID != 8 {
		t.Errorf("uid/gid = %d/%d", info.UID, info.GID)
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpUtime, Path: "/f"}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessAndMknod(t *testing.T) {
	fs, c := newFS()
	if err := c.Access("/nope", 0); err != posix.ErrNotExist {
		t.Errorf("access missing = %v", err)
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpMknod, Path: "/dev0", Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	if err := c.Access("/dev0", 0); err != nil {
		t.Errorf("access mknod'd file: %v", err)
	}
	if _, err := posix.Do(fs, &posix.Request{Op: posix.OpMknod, Path: "/dev0", Mode: 0o644}); err != posix.ErrExist {
		t.Errorf("duplicate mknod = %v", err)
	}
}

func TestBadFDErrors(t *testing.T) {
	_, c := newFS()
	if _, err := c.Read(99, 10); err != posix.ErrBadFD {
		t.Errorf("read bad fd = %v", err)
	}
	if err := c.Close(99); err != posix.ErrBadFD {
		t.Errorf("close bad fd = %v", err)
	}
	if _, err := c.FStat(99); err != posix.ErrBadFD {
		t.Errorf("fstat bad fd = %v", err)
	}
}

func TestWriteToReadOnlyFDFails(t *testing.T) {
	_, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/f"))
	fd, err := c.Open("/f", posix.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("x")); err != posix.ErrBadFD {
		t.Errorf("write to O_RDONLY = %v", err)
	}
}

func TestNestedPaths(t *testing.T) {
	_, c := newFS()
	if err := c.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, mustCreat(t, c, "/a/b/c/file"))
	if _, err := c.Stat("/a/b/c/file"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/missing/dir", 0o755); err != posix.ErrNotExist {
		t.Errorf("mkdir under missing parent = %v", err)
	}
	if _, err := c.Stat("/a/b/c/file/under-file"); err != posix.ErrNotDir {
		t.Errorf("path through file = %v", err)
	}
}

func TestSizeOnlyWriteModel(t *testing.T) {
	fs, c := newFS()
	fd := mustCreat(t, c, "/f")
	// Workload generators pass Size without Data.
	rep, err := posix.Do(fs, &posix.Request{Op: posix.OpWrite, FD: fd, Size: 4096})
	if err != nil || rep.N != 4096 {
		t.Fatalf("size-only write: n=%d err=%v", rep.N, err)
	}
	info, _ := c.FStat(fd)
	if info.Size != 4096 {
		t.Errorf("file size = %d, want 4096", info.Size)
	}
}

func TestWriteSyncOps(t *testing.T) {
	fs, c := newFS()
	fd := mustCreat(t, c, "/f")
	if err := c.FSync(fd); err != nil {
		t.Fatal(err)
	}
	for _, op := range []posix.Op{posix.OpFDataSync, posix.OpSync} {
		if _, err := posix.Do(fs, &posix.Request{Op: op, FD: fd}); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestFDLeakAccounting(t *testing.T) {
	fs, c := newFS()
	var fds []int
	for i := 0; i < 10; i++ {
		fds = append(fds, mustCreat(t, c, fmt.Sprintf("/f%d", i)))
	}
	if fs.OpenFDs() != 10 {
		t.Errorf("open fds = %d, want 10", fs.OpenFDs())
	}
	for _, fd := range fds {
		mustClose(t, c, fd)
	}
	if fs.OpenFDs() != 0 {
		t.Errorf("open fds after close = %d, want 0", fs.OpenFDs())
	}
}

// Property test: a random sequence of creates/unlinks/mkdirs/rmdirs keeps
// the file count consistent with a reference map.
func TestNamespaceInvariantProperty(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		fs, c := newFS()
		rng := rand.New(rand.NewSource(seed))
		ref := map[string]bool{} // path -> isDir
		for _, raw := range opsRaw {
			name := fmt.Sprintf("/n%d", rng.Intn(8))
			switch raw % 4 {
			case 0: // create
				fd, err := c.Creat(name, 0o644)
				if ref[name] {
					// existing dir -> creat must fail via IsDir? creat on
					// existing file is fine (truncate). Existing dir fails.
					if err == nil {
						c.Close(fd)
					}
					continue
				}
				if err == nil {
					c.Close(fd)
					if _, exists := ref[name]; !exists {
						ref[name] = false
					}
				}
			case 1: // unlink
				err := c.Unlink(name)
				isDir, exists := ref[name]
				if exists && !isDir {
					if err != nil {
						return false
					}
					delete(ref, name)
				} else if err == nil {
					return false
				}
			case 2: // mkdir
				err := c.Mkdir(name, 0o755)
				if _, exists := ref[name]; exists {
					if err != posix.ErrExist {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					ref[name] = true
				}
			case 3: // rmdir
				err := c.Rmdir(name)
				isDir, exists := ref[name]
				if exists && isDir {
					if err != nil {
						return false
					}
					delete(ref, name)
				} else if err == nil {
					return false
				}
			}
		}
		if fs.FileCount() != int64(len(ref)) {
			return false
		}
		entries, err := c.Readdir("/")
		if err != nil || len(entries) != len(ref) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	_, c := newFS()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("/d/g%d-f%d", g, i)
				fd, err := c.Creat(p, 0o644)
				if err != nil {
					done <- err
					return
				}
				if _, err := c.Write(fd, []byte("x")); err != nil {
					done <- err
					return
				}
				if err := c.Close(fd); err != nil {
					done <- err
					return
				}
				if _, err := c.Stat(p); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.Readdir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 800 {
		t.Errorf("got %d entries, want 800", len(entries))
	}
}

func mustCreat(t *testing.T, c *posix.Client, path string) int {
	t.Helper()
	fd, err := c.Creat(path, 0o644)
	if err != nil {
		t.Fatalf("creat %s: %v", path, err)
	}
	return fd
}

func mustClose(t *testing.T, c *posix.Client, fd int) {
	t.Helper()
	if err := c.Close(fd); err != nil {
		t.Fatalf("close %d: %v", fd, err)
	}
}

func readAll(t *testing.T, c *posix.Client, path string) string {
	t.Helper()
	fd, err := c.Open(path, posix.ORdOnly, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer c.Close(fd)
	data, err := c.Read(fd, 1<<20)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

// Oracle property: random pwrite/pread sequences against one file match a
// plain byte-slice model exactly.
func TestReadWriteOracleProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		_, c := newFS()
		fd, err := c.Open("/oracle", posix.OCreate|posix.ORdWr, 0o644)
		if err != nil {
			return false
		}
		var model []byte
		for _, raw := range ops {
			off := int64(raw % 4096)
			size := int64(raw>>12%257) + 1
			if raw&1 == 0 {
				payload := bytes.Repeat([]byte{byte(raw)}, int(size))
				if _, err := c.PWrite(fd, payload, off); err != nil {
					return false
				}
				if end := off + size; end > int64(len(model)) {
					model = append(model, make([]byte, end-int64(len(model)))...)
				}
				copy(model[off:off+size], payload)
			} else {
				got, err := c.PRead(fd, size, off)
				if err != nil {
					return false
				}
				var want []byte
				if off < int64(len(model)) {
					end := off + size
					if end > int64(len(model)) {
						end = int64(len(model))
					}
					want = model[off:end]
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		info, err := c.FStat(fd)
		return err == nil && info.Size == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTypedClientSurface(t *testing.T) {
	// Exercise the full typed client over the remaining call surface.
	_, c := newFS()
	mustClose(t, c, mustCreat(t, c, "/orig"))

	if err := c.Link("/orig", "/hard"); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink("/orig", "/soft"); err != nil {
		t.Fatal(err)
	}
	target, err := c.Readlink("/soft")
	if err != nil || target != "/orig" {
		t.Fatalf("Readlink = %q, %v", target, err)
	}
	if err := c.Chmod("/orig", 0o600); err != nil {
		t.Fatal(err)
	}
	if info, _ := c.Stat("/orig"); info.Mode.Perm() != 0o600 {
		t.Errorf("mode = %o", info.Mode.Perm())
	}
	if err := c.Chown("/orig", 42, 43); err != nil {
		t.Fatal(err)
	}
	if info, _ := c.Stat("/orig"); info.UID != 42 || info.GID != 43 {
		t.Errorf("uid/gid = %d/%d", info.UID, info.GID)
	}
	if err := c.Utime("/orig"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mknod("/node", 0o644); err != nil {
		t.Fatal(err)
	}

	// Directory stream.
	if err := c.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	mustClose(t, c, mustCreat(t, c, "/dir/a"))
	mustClose(t, c, mustCreat(t, c, "/dir/b"))
	dfd, err := c.Opendir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		e, ok, err := c.ReaddirFD(dfd)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		names = append(names, e.Name)
	}
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("streamed = %v", names)
	}
	if err := c.Closedir(dfd); err != nil {
		t.Fatal(err)
	}

	// FTruncate / FDataSync / Sync.
	fd := mustCreat(t, c, "/trunc")
	if _, err := c.Write(fd, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := c.FTruncate(fd, 2); err != nil {
		t.Fatal(err)
	}
	if info, _ := c.FStat(fd); info.Size != 2 {
		t.Errorf("size = %d", info.Size)
	}
	if err := c.FDataSync(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}
