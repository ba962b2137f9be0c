package mount

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func twoMounts(t *testing.T) (*Router, *localfs.FS, *localfs.FS) {
	t.Helper()
	pfs := localfs.New(clock.NewSim(epoch))
	local := localfs.New(clock.NewSim(epoch))
	r, err := NewRouter(
		Mount{Prefix: "/lustre", FS: pfs, Controlled: true, Name: "pfs"},
		Mount{Prefix: "/", FS: local, Name: "local"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r, pfs, local
}

func TestNewRouterRejectsNilFS(t *testing.T) {
	if _, err := NewRouter(Mount{Prefix: "/x"}); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestNewRouterRejectsDuplicatePrefix(t *testing.T) {
	fs := localfs.New(clock.NewSim(epoch))
	if _, err := NewRouter(Mount{Prefix: "/a", FS: fs}, Mount{Prefix: "/a/", FS: fs}); err == nil {
		t.Fatal("duplicate prefix accepted")
	}
}

func TestResolveLongestPrefix(t *testing.T) {
	fs := localfs.New(clock.NewSim(epoch))
	r, err := NewRouter(
		Mount{Prefix: "/", FS: fs, Name: "root"},
		Mount{Prefix: "/scratch", FS: fs, Name: "scratch"},
		Mount{Prefix: "/scratch/foo", FS: fs, Name: "foo"},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, want string }{
		{"/etc/hosts", "root"},
		{"/scratch/a", "scratch"},
		{"/scratch/foo/b", "foo"},
		{"/scratch/foo", "foo"},
		{"/scratchy", "root"}, // prefix must match at a path boundary
	}
	for _, c := range cases {
		m := r.Resolve(c.path)
		if m == nil || m.Name != c.want {
			t.Errorf("Resolve(%q) = %v, want %s", c.path, m, c.want)
		}
	}
}

func TestPathsAreRelativized(t *testing.T) {
	r, pfs, _ := twoMounts(t)
	c := posix.NewClient(r)
	fd, err := c.Creat("/lustre/data.bin", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	// The backend must see "/data.bin", not "/lustre/data.bin".
	if _, err := posix.NewClient(pfs).Stat("/data.bin"); err != nil {
		t.Errorf("backend path not relativized: %v", err)
	}
}

func TestFDTranslationAcrossMounts(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	// Open files on both backends; their backend fds will collide (both
	// start at 3), so the router must keep them apart.
	fdP, err := c.Creat("/lustre/a", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fdL, err := c.Creat("/tmp-a", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if fdP == fdL {
		t.Fatalf("virtual fds collide: %d", fdP)
	}
	if _, err := c.Write(fdP, []byte("to-pfs")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fdL, []byte("to-local")); err != nil {
		t.Fatal(err)
	}
	check := func(path, want string) {
		fd, err := c.Open(path, posix.ORdOnly, 0)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		defer c.Close(fd)
		data, err := c.Read(fd, 100)
		if err != nil || string(data) != want {
			t.Errorf("%s = %q, %v; want %q", path, data, err, want)
		}
	}
	check("/lustre/a", "to-pfs")
	check("/tmp-a", "to-local")
	if err := c.Close(fdP); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fdL); err != nil {
		t.Fatal(err)
	}
}

func TestFDTableLifecycle(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	if r.OpenFDs() != 0 {
		t.Fatal("fresh router has open fds")
	}
	fd, _ := c.Creat("/lustre/f", 0o644)
	if r.OpenFDs() != 1 {
		t.Errorf("OpenFDs = %d, want 1", r.OpenFDs())
	}
	c.Close(fd)
	if r.OpenFDs() != 0 {
		t.Errorf("OpenFDs after close = %d, want 0", r.OpenFDs())
	}
	if err := c.Close(fd); err != posix.ErrBadFD {
		t.Errorf("double close = %v, want ErrBadFD", err)
	}
}

func TestCrossMountRenameIsEXDEV(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	fd, _ := c.Creat("/lustre/f", 0o644)
	c.Close(fd)
	if err := c.Rename("/lustre/f", "/elsewhere"); err != posix.ErrCrossDevice {
		t.Errorf("cross-mount rename = %v, want ErrCrossDevice", err)
	}
	// Same-mount rename still works.
	if err := c.Rename("/lustre/f", "/lustre/g"); err != nil {
		t.Errorf("same-mount rename: %v", err)
	}
}

func TestUnmountedPathFails(t *testing.T) {
	fs := localfs.New(clock.NewSim(epoch))
	r, err := NewRouter(Mount{Prefix: "/only", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c := posix.NewClient(r)
	if _, err := c.Stat("/other/path"); err != posix.ErrNotExist {
		t.Errorf("unmounted path = %v, want ErrNotExist", err)
	}
}

func TestResolveRequestByFD(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	fd, _ := c.Creat("/lustre/f", 0o644)
	rt, err := r.Route(&posix.Request{Op: posix.OpRead, FD: fd})
	if err != nil || rt.Name != "pfs" {
		t.Errorf("Route by fd = %+v, %v", rt, err)
	}
	if _, err := r.Route(&posix.Request{Op: posix.OpRead, FD: 9999}); err != posix.ErrBadFD {
		t.Errorf("unknown fd routed: %v", err)
	}
	rt, err = r.Route(&posix.Request{Op: posix.OpStat, Path: "/tmp/x"})
	if err != nil || rt.Name != "local" {
		t.Errorf("Route by path = %+v, %v", rt, err)
	}
}

func TestControlledFlagPropagates(t *testing.T) {
	r, _, _ := twoMounts(t)
	if m := r.Resolve("/lustre/x"); !m.Controlled {
		t.Error("PFS mount should be controlled")
	}
	if m := r.Resolve("/home/x"); m.Controlled {
		t.Error("local mount should not be controlled")
	}
}

// Property: resolution always returns the mount with the longest matching
// prefix among candidates.
func TestLongestPrefixProperty(t *testing.T) {
	fs := localfs.New(clock.NewSim(epoch))
	prefixes := []string{"/", "/a", "/a/b", "/a/b/c", "/d"}
	var mounts []Mount
	for _, p := range prefixes {
		mounts = append(mounts, Mount{Prefix: p, FS: fs, Name: p})
	}
	r, err := NewRouter(mounts...)
	if err != nil {
		t.Fatal(err)
	}
	f := func(segsRaw []uint8) bool {
		segs := []string{"a", "b", "c", "x"}
		path := ""
		for _, s := range segsRaw {
			path += "/" + segs[int(s)%len(segs)]
		}
		if path == "" {
			path = "/"
		}
		got := r.Resolve(path)
		// Reference: best = longest prefix that matches at a boundary.
		best := ""
		for _, p := range prefixes {
			if p == "/" || path == p || strings.HasPrefix(path, p+"/") {
				if len(p) > len(best) {
					best = p
				}
			}
		}
		if best == "" {
			best = "/"
		}
		return got != nil && got.Name == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentRouting(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				root := "/lustre"
				if i%2 == 0 {
					root = "/local"
				}
				p := fmt.Sprintf("%s-g%d-%d", root, g, i)
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
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if r.OpenFDs() != 0 {
		t.Errorf("leaked %d fds", r.OpenFDs())
	}
}

// TestConcurrentResolveBesideFDChurn runs lock-free path resolution —
// Resolve, Route by path, and path requests through Apply —
// beside goroutines that churn the descriptor table with open/close
// (run under -race): the mount table is immutable and shares nothing
// with the table the lock still guards.
func TestConcurrentResolveBesideFDChurn(t *testing.T) {
	r, _, _ := twoMounts(t)
	c := posix.NewClient(r)
	for _, p := range []string{"/lustre/f", "/local-f"} {
		fd, err := c.Creat(p, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) { // fd-table churn
			defer wg.Done()
			for i := 0; i < 300; i++ {
				fd, err := c.Open("/lustre/f", posix.ORdOnly, 0)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if rt, err := r.Route(&posix.Request{Op: posix.OpFStat, FD: fd}); err != nil || rt.Name != "pfs" {
					t.Errorf("Route(fd %d) = %+v, %v", fd, rt, err)
				}
				if err := c.Close(fd); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}(g)
		go func(g int) { // path resolution
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if m := r.Resolve("/lustre/f"); m == nil || m.Name != "pfs" {
					t.Errorf("Resolve(/lustre/f) = %v", m)
				}
				if rt, err := r.Route(&posix.Request{Op: posix.OpStat, Path: "/local-f"}); err != nil || rt.Name != "local" {
					t.Errorf("Route(/local-f) = %+v, %v", rt, err)
				}
				if _, err := c.Stat("/local-f"); err != nil {
					t.Errorf("stat: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if r.OpenFDs() != 0 {
		t.Errorf("leaked %d fds", r.OpenFDs())
	}
}
