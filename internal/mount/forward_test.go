package mount

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
)

// recorder is a backend that notes the routing fields it was called
// with, answers opens with a fixed descriptor and fails on demand.
type recorder struct {
	calls             int
	path, newPath     string
	fd, openFD        int
	err               error
	sawCallersRequest *posix.Request
}

func (b *recorder) Apply(req *posix.Request, rep *posix.Reply) error {
	b.calls++
	b.path, b.newPath, b.fd = req.Path, req.NewPath, req.FD
	b.sawCallersRequest = req
	rep.FD = b.openFD
	return b.err
}

// TestForwardRestoresRoutingFields: the router forwards the caller's own
// request with Path, NewPath and FD rewritten for the backend, and the
// three hold the caller's values again whichever way the call ends.
func TestForwardRestoresRoutingFields(t *testing.T) {
	errBackend := errors.New("backend failed")
	a, b := &recorder{openFD: 70}, &recorder{openFD: 80}
	r, err := NewRouter(
		Mount{Prefix: "/mnt/a", FS: a, Name: "a"},
		Mount{Prefix: "/mnt/b", FS: b, Name: "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	// A descriptor on a: the backend's is 70, the router's is virtual.
	rep, err := posix.Do(r, &posix.Request{Op: posix.OpOpen, Path: "/mnt/a/held"})
	if err != nil {
		t.Fatal(err)
	}
	vfd := rep.FD
	if vfd == 70 {
		t.Fatalf("router handed out the backend's descriptor %d", vfd)
	}

	cases := []struct {
		name       string
		req        posix.Request
		backendErr error
		want       error
		// What the backend must have seen; calls == 0 means never reached.
		calls             int
		path, newPath     string
		fd                int
		backend           *recorder
		wantOpenFDs       int
		checkVirtualReply bool
	}{
		{name: "path op succeeds", req: posix.Request{Op: posix.OpStat, Path: "/mnt/a/d/f", FD: 5},
			calls: 1, path: "/d/f", fd: 5, backend: a, wantOpenFDs: 1},
		{name: "mount point itself", req: posix.Request{Op: posix.OpStat, Path: "/mnt/b"},
			calls: 1, path: "/", backend: b, wantOpenFDs: 1},
		{name: "two-path op succeeds", req: posix.Request{Op: posix.OpRename, Path: "/mnt/b/x", NewPath: "/mnt/b/d/y"},
			calls: 1, path: "/x", newPath: "/d/y", backend: b, wantOpenFDs: 1},
		{name: "backend error", req: posix.Request{Op: posix.OpRename, Path: "/mnt/a/x", NewPath: "/mnt/a/y"},
			backendErr: errBackend, want: errBackend, calls: 1, path: "/x", newPath: "/y", backend: a, wantOpenFDs: 1},
		{name: "no mount serves the path", req: posix.Request{Op: posix.OpStat, Path: "/elsewhere/f"},
			want: posix.ErrNotExist, backend: a, wantOpenFDs: 1},
		{name: "no mount serves the new path", req: posix.Request{Op: posix.OpRename, Path: "/mnt/a/x", NewPath: "/elsewhere/y"},
			want: posix.ErrNotExist, backend: a, wantOpenFDs: 1},
		{name: "rename across mounts", req: posix.Request{Op: posix.OpRename, Path: "/mnt/a/x", NewPath: "/mnt/b/x"},
			want: posix.ErrCrossDevice, backend: a, wantOpenFDs: 1},
		{name: "unknown descriptor", req: posix.Request{Op: posix.OpFStat, FD: 9999},
			want: posix.ErrBadFD, backend: a, wantOpenFDs: 1},
		{name: "descriptor op succeeds", req: posix.Request{Op: posix.OpFStat, FD: vfd},
			calls: 1, fd: 70, backend: a, wantOpenFDs: 1},
		{name: "descriptor op fails", req: posix.Request{Op: posix.OpClose, FD: vfd},
			backendErr: errBackend, want: errBackend, calls: 1, fd: 70, backend: a, wantOpenFDs: 1},
		{name: "open virtualizes the reply", req: posix.Request{Op: posix.OpOpen, Path: "/mnt/b/f"},
			calls: 1, path: "/f", backend: b, wantOpenFDs: 2, checkVirtualReply: true},
		{name: "close releases the caller's descriptor", req: posix.Request{Op: posix.OpClose, FD: vfd},
			calls: 1, fd: 70, backend: a, wantOpenFDs: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			*a, *b = recorder{openFD: 70}, recorder{openFD: 80}
			c.backend.err = c.backendErr
			req, before := c.req, c.req
			var rep posix.Reply
			if err := r.Apply(&req, &rep); err != c.want {
				t.Fatalf("Apply = %v, want %v", err, c.want)
			}
			if req.Path != before.Path || req.NewPath != before.NewPath || req.FD != before.FD {
				t.Errorf("request came back as path %q, new path %q, fd %d; the caller's were %q, %q, %d",
					req.Path, req.NewPath, req.FD, before.Path, before.NewPath, before.FD)
			}
			if a.calls+b.calls != c.calls || c.backend.calls != c.calls {
				t.Fatalf("backends called %d+%d times, want %d on %p", a.calls, b.calls, c.calls, c.backend)
			}
			if c.calls == 0 {
				return
			}
			got := c.backend
			if got.path != c.path || got.newPath != c.newPath || got.fd != c.fd {
				t.Errorf("backend saw path %q, new path %q, fd %d; want %q, %q, %d", got.path, got.newPath, got.fd, c.path, c.newPath, c.fd)
			}
			if got.sawCallersRequest != &req {
				t.Error("backend was handed a copy, not the caller's request")
			}
			if c.checkVirtualReply && (rep.FD == 80 || rep.FD == vfd) {
				t.Errorf("open replied descriptor %d (backend's 80, live %d)", rep.FD, vfd)
			}
			if n := r.OpenFDs(); n != c.wantOpenFDs {
				t.Errorf("OpenFDs = %d, want %d", n, c.wantOpenFDs)
			}
		})
	}
}

// TestForwardInPlaceIsPerRequest (run under -race): goroutines that each
// own their request share nothing through in-place forwarding — open,
// fstat and close on two mounts, every request checked for the caller's
// fields after each call.
func TestForwardInPlaceIsPerRequest(t *testing.T) {
	clk := clock.NewSim(epoch)
	r, err := NewRouter(
		Mount{Prefix: "/lustre", FS: localfs.New(clk), Controlled: true, Name: "pfs"},
		Mount{Prefix: "/local", FS: localfs.New(clk), Name: "local"},
	)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := "/lustre"
			if g%2 == 1 {
				root = "/local"
			}
			path := fmt.Sprintf("%s/g%d", root, g)
			var req posix.Request
			var rep posix.Reply
			do := func(op posix.Op, p string, fd int) bool {
				req = posix.Request{Op: op, Path: p, FD: fd, Flags: posix.OCreate | posix.ORdWr}
				rep.Reset()
				if err := r.Apply(&req, &rep); err != nil {
					t.Errorf("%v %s fd %d: %v", op, p, fd, err)
					return false
				}
				if req.Path != p || req.FD != fd {
					t.Errorf("%v came back as path %q fd %d, issued as %q, %d", op, req.Path, req.FD, p, fd)
					return false
				}
				return true
			}
			for i := 0; i < rounds; i++ {
				if !do(posix.OpOpen, path, 0) {
					return
				}
				fd := rep.FD
				if !do(posix.OpFStat, "", fd) || !do(posix.OpClose, "", fd) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.OpenFDs(); n != 0 {
		t.Errorf("leaked %d descriptors", n)
	}
}
