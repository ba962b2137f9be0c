package vfs

import (
	"errors"
	"io"
	"io/fs"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/osfs"
	"padll/internal/posix"
)

// seedTree populates a canonical tree through the bridge's own write
// extensions, so creation and verification both cross the boundary.
func seedTree(t *testing.T, v *FS) []string {
	t.Helper()
	if err := v.MkdirAll("src/pkg", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := v.Mkdir("docs", 0o755); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	files := map[string]string{
		"README.md":       "# tree\n",
		"src/main.go":     "package main\n",
		"src/pkg/util.go": "package pkg\n",
		"docs/guide.txt":  "read me\n",
	}
	for name, body := range files {
		if err := v.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
	}
	return []string{"README.md", "docs/guide.txt", "src/main.go", "src/pkg/util.go"}
}

func newLocalVFS(t *testing.T) *FS {
	t.Helper()
	return New(localfs.New(clock.NewSim(time.Unix(1700000000, 0))))
}

func newOSVFS(t *testing.T) *FS {
	t.Helper()
	backend, err := osfs.New(t.TempDir(), clock.NewReal())
	if err != nil {
		t.Fatalf("osfs.New: %v", err)
	}
	return New(backend)
}

// TestFSConformance runs the stdlib conformance suite over both backend
// families — the in-memory model and the real-OS tree — through the same
// bridge code path.
func TestFSConformance(t *testing.T) {
	backends := map[string]func(*testing.T) *FS{
		"localfs": newLocalVFS,
		"osfs":    newOSVFS,
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			v := mk(t)
			expected := seedTree(t, v)
			if err := fstest.TestFS(v, expected...); err != nil {
				t.Errorf("fstest.TestFS over %s: %v", name, err)
			}
		})
	}
}

func TestReadFileAndStat(t *testing.T) {
	v := newLocalVFS(t)
	seedTree(t, v)

	data, err := v.ReadFile("src/main.go")
	if err != nil || string(data) != "package main\n" {
		t.Fatalf("ReadFile: %q err=%v", data, err)
	}
	fi, err := v.Stat("src/main.go")
	if err != nil || fi.Name() != "main.go" || fi.Size() != int64(len(data)) || fi.IsDir() {
		t.Fatalf("Stat: %v err=%v", fi, err)
	}
	if _, err := v.Stat("missing"); !errors.Is(err, fs.ErrNotExist) || !errors.Is(err, posix.ErrNotExist) {
		t.Errorf("Stat(missing) must match both vocabularies: %v", err)
	}
	var pe *fs.PathError
	if _, err := v.Open("missing"); !errors.As(err, &pe) || pe.Path != "missing" {
		t.Errorf("Open(missing) must be a *fs.PathError: %v", err)
	}
	if _, err := v.Open("/rooted"); !errors.Is(err, fs.ErrInvalid) {
		t.Errorf("rooted names are invalid io/fs names: %v", err)
	}
}

func TestSubView(t *testing.T) {
	v := newLocalVFS(t)
	seedTree(t, v)

	sub, err := v.Sub("src")
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	data, err := fs.ReadFile(sub, "pkg/util.go")
	if err != nil || string(data) != "package pkg\n" {
		t.Fatalf("ReadFile via sub: %q err=%v", data, err)
	}
	if _, err := sub.Open("README.md"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("sub view must not see the parent: %v", err)
	}
	if _, err := v.Sub("README.md"); !errors.Is(err, posix.ErrNotDir) {
		t.Errorf("Sub on a file: %v", err)
	}
}

func TestWriteExtensions(t *testing.T) {
	v := newLocalVFS(t)
	seedTree(t, v)

	f, err := v.Create("out.bin")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := f.WriteAt([]byte("XY"), 1); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	buf := make([]byte, 6)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "aXYdef" {
		t.Fatalf("content after WriteAt: %q", buf)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("double close: %v", err)
	}

	if err := v.Rename("out.bin", "docs/out.bin"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := v.Stat("out.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("old name survives rename: %v", err)
	}
	if err := v.Remove("docs/out.bin"); err != nil {
		t.Fatalf("Remove file: %v", err)
	}
	if err := v.RemoveAll("src"); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
	if _, err := v.Stat("src"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("src survives RemoveAll: %v", err)
	}
	if err := v.RemoveAll("src"); err != nil {
		t.Errorf("RemoveAll on missing tree must be nil: %v", err)
	}
}

func TestDirStreamingReadDir(t *testing.T) {
	v := newLocalVFS(t)
	seedTree(t, v)

	f, err := v.Open("src")
	if err != nil {
		t.Fatalf("Open(src): %v", err)
	}
	d, ok := f.(fs.ReadDirFile)
	if !ok {
		t.Fatal("directory handle must implement fs.ReadDirFile")
	}
	first, err := d.ReadDir(1)
	if err != nil || len(first) != 1 || first[0].Name() != "main.go" {
		t.Fatalf("ReadDir(1): %v err=%v", first, err)
	}
	rest, err := d.ReadDir(10)
	if err != nil || len(rest) != 1 || rest[0].Name() != "pkg" || !rest[0].IsDir() {
		t.Fatalf("ReadDir(10): %v err=%v", rest, err)
	}
	if _, err := d.ReadDir(1); !errors.Is(err, io.EOF) {
		t.Errorf("exhausted stream must return io.EOF: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close dir: %v", err)
	}
}

type applyFunc func(*posix.Request, *posix.Reply) error

func (f applyFunc) Apply(req *posix.Request, rep *posix.Reply) error { return f(req, rep) }

// TestJobContextStamping verifies differentiation labels reach the
// backend on every bridged request.
func TestJobContextStamping(t *testing.T) {
	clk := clock.NewSim(time.Unix(1700000000, 0))
	backend := localfs.New(clk)
	var mu sync.Mutex
	jobs := map[string]bool{}
	spy := applyFunc(func(req *posix.Request, rep *posix.Reply) error {
		mu.Lock()
		jobs[req.JobID] = true
		mu.Unlock()
		return backend.Apply(req, rep)
	})
	v := New(spy, WithJob("tensorflow-1443", "alice", 7))
	if err := v.WriteFile("f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !jobs["tensorflow-1443"] || len(jobs) != 1 {
		t.Errorf("job context missing on bridged requests: %v", jobs)
	}
}

// TestConcurrentWalkersThroughRouter runs many fs.WalkDir walkers over a
// bridge mounted on the router, so concurrent descriptor allocation and
// translation (virtual fd -> {mount, backend fd}) is exercised under the
// race detector.
func TestConcurrentWalkersThroughRouter(t *testing.T) {
	clk := clock.NewSim(time.Unix(1700000000, 0))
	pfs := localfs.New(clk)
	scratch := localfs.New(clk)
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/", FS: scratch, Name: "scratch"},
		mount.Mount{Prefix: "/pfs", FS: pfs, Controlled: true, Name: "pfs"},
	)
	if err != nil {
		t.Fatal(err)
	}
	v := New(router)
	// "pfs" resolves through the router's longest-prefix match onto the
	// controlled mount's own root; no placeholder directory is needed.
	for _, dir := range []string{"pfs/a", "pfs/b", "pfs/a/deep"} {
		if err := v.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"pfs/a/1", "pfs/a/2", "pfs/a/deep/3", "pfs/b/4", "top"} {
		if err := v.WriteFile(name, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const walkers = 8
	var wg sync.WaitGroup
	errs := make(chan error, walkers)
	for i := 0; i < walkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			files := 0
			werr := fs.WalkDir(v, "pfs", func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					// One extra classified getattr per file, plus a
					// streamed open/readdir/close per directory.
					if _, ierr := d.Info(); ierr != nil {
						return ierr
					}
					f, oerr := v.Open(p)
					if oerr != nil {
						return oerr
					}
					if _, rerr := io.ReadAll(f); rerr != nil {
						return rerr
					}
					if cerr := f.Close(); cerr != nil {
						return cerr
					}
					files++
				}
				return nil
			})
			if werr == nil && files != 4 {
				werr = errors.New("walker saw wrong file count")
			}
			errs <- werr
		}()
	}
	wg.Wait()
	close(errs)
	for werr := range errs {
		if werr != nil {
			t.Errorf("walker: %v", werr)
		}
	}
}
