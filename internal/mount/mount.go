// Package mount implements the mount-table router that underpins PADLL's
// request differentiation (§III-A): applications submit POSIX requests
// that may target the PFS or other local file systems (xfs, an NFS
// server), and only PFS-bound requests should be rate limited. The Router
// resolves each request's path to a mounted backend by longest-prefix
// match and forwards it, translating file descriptors so that fd-based
// follow-up operations (read, close, fstat) reach the backend that issued
// them and inherit its classification.
package mount

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"padll/internal/posix"
)

// Mount is one mount-table entry.
type Mount struct {
	// Prefix is the mount point, e.g. "/lustre" or "/tmp".
	Prefix string
	// FS is the backend serving paths under Prefix.
	FS posix.FileSystem
	// Controlled marks backends whose requests PADLL rate limits (the
	// shared PFS); uncontrolled mounts are forwarded without throttling.
	Controlled bool
	// Name labels the mount in stats and logs.
	Name string
}

// Router routes requests to mounted backends. It implements
// posix.FileSystem and is safe for concurrent use.
type Router struct {
	// mounts is sorted by descending prefix length for longest match and
	// immutable after NewRouter, so path resolution takes no lock.
	mounts []Mount

	mu     sync.RWMutex // guards the descriptor table only
	fds    map[int]fdEntry
	nextFD int
}

type fdEntry struct {
	mount     *Mount
	backendFD int
}

var _ posix.FileSystem = (*Router)(nil)

// NewRouter returns a router with the given mounts. Prefixes are
// normalized; duplicate prefixes are an error.
func NewRouter(mounts ...Mount) (*Router, error) {
	r := &Router{fds: make(map[int]fdEntry), nextFD: 3}
	seen := map[string]bool{}
	for _, m := range mounts {
		m.Prefix = normalize(m.Prefix)
		if m.FS == nil {
			return nil, fmt.Errorf("mount: nil backend for %q", m.Prefix)
		}
		if seen[m.Prefix] {
			return nil, fmt.Errorf("mount: duplicate prefix %q", m.Prefix)
		}
		seen[m.Prefix] = true
		if m.Name == "" {
			m.Name = m.Prefix
		}
		r.mounts = append(r.mounts, m)
	}
	sort.Slice(r.mounts, func(i, j int) bool {
		return len(r.mounts[i].Prefix) > len(r.mounts[j].Prefix)
	})
	return r, nil
}

func normalize(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	if p != "/" {
		p = strings.TrimSuffix(p, "/")
	}
	return p
}

// Resolve returns the mount serving path, or nil when no mount matches.
// It reads only the immutable mount table: no lock, no shared write.
func (r *Router) Resolve(path string) *Mount {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path // allocates; every client issues rooted paths
	}
	for i := range r.mounts {
		m := &r.mounts[i]
		if m.Prefix == "/" {
			return m
		}
		// path is m.Prefix itself or lies under "m.Prefix/".
		if strings.HasPrefix(path, m.Prefix) &&
			(len(path) == len(m.Prefix) || path[len(m.Prefix)] == '/') {
			return m
		}
	}
	return nil
}

// Route resolves the mount a request targets: by path for path-based
// operations (no lock), by descriptor for fd-based ones. It fails with
// posix.ErrNotExist for a path no mount serves and posix.ErrBadFD for a
// descriptor the router did not issue. A layer that needs the mount
// before forwarding (the shim reads Controlled) resolves here and hands
// the mount to Forward.
func (r *Router) Route(req *posix.Request) (*Mount, error) {
	if req.Path != "" {
		m := r.Resolve(req.Path)
		if m == nil {
			return nil, posix.ErrNotExist
		}
		return m, nil
	}
	r.mu.RLock()
	e, ok := r.fds[req.FD]
	r.mu.RUnlock()
	if !ok {
		return nil, posix.ErrBadFD
	}
	return e.mount, nil
}

// relativize rewrites a full path to the backend's namespace: the mount
// prefix is stripped so each backend sees rooted paths.
func relativize(m *Mount, path string) string {
	if m.Prefix == "/" {
		return path
	}
	rel := strings.TrimPrefix(path, m.Prefix)
	if rel == "" {
		rel = "/"
	}
	return rel
}

// opensFD reports whether the op allocates a descriptor on success.
func opensFD(op posix.Op) bool {
	switch op {
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat, posix.OpOpendir:
		return true
	}
	return false
}

// closesFD reports whether the op releases a descriptor on success.
func closesFD(op posix.Op) bool {
	return op == posix.OpClose || op == posix.OpClosedir
}

// Apply implements posix.FileSystem: resolve the target mount, forward.
func (r *Router) Apply(req *posix.Request, rep *posix.Reply) error {
	var m *Mount
	if req.Path != "" {
		if m = r.Resolve(req.Path); m == nil {
			return posix.ErrNotExist
		}
	}
	return r.Forward(m, req, rep)
}

// Forward sends req to its mount and maintains the virtual descriptor
// table. For a path request m is the mount Route resolved for it, so the
// path is matched against the table once. A descriptor request is looked
// up here, at the moment it is forwarded, whatever m says: the caller may
// have blocked since Route (the shim does, in the stage), the descriptor
// may have been closed meanwhile, and backends reuse descriptor numbers —
// a stale one would land on another caller's file.
//
// The request is forwarded in place: for the duration of the backend call
// its Path and NewPath are relative to the mount and its FD is the
// backend's, and all three hold the caller's values again on every return
// (posix.FileSystem's ownership contract) — no copy, no scratch.
func (r *Router) Forward(m *Mount, req *posix.Request, rep *posix.Reply) error {
	path, newPath, fd := req.Path, req.NewPath, req.FD
	if path != "" {
		if newPath != "" {
			nm := r.Resolve(newPath)
			if nm == nil {
				return posix.ErrNotExist
			}
			if nm != m {
				// rename/link across mounts is EXDEV, as in POSIX.
				return posix.ErrCrossDevice
			}
			req.NewPath = relativize(m, newPath)
		}
		req.Path = relativize(m, path)
	} else {
		r.mu.RLock()
		e, ok := r.fds[fd]
		r.mu.RUnlock()
		if !ok {
			return posix.ErrBadFD
		}
		m = e.mount
		req.FD = e.backendFD
	}
	err := m.FS.Apply(req, rep)
	req.Path, req.NewPath, req.FD = path, newPath, fd
	if err != nil {
		return err
	}

	// The descriptor table changes under its lock: an open pays one map
	// write and a close one delete, by design.
	if opensFD(req.Op) {
		r.mu.Lock()
		vfd := r.nextFD
		r.nextFD++
		r.fds[vfd] = fdEntry{mount: m, backendFD: rep.FD}
		r.mu.Unlock()
		rep.FD = vfd // virtualize in place; the backend fd stays private
	} else if closesFD(req.Op) {
		r.mu.Lock()
		delete(r.fds, fd)
		r.mu.Unlock()
	}
	return nil
}

// OpenFDs reports the number of live virtual descriptors.
func (r *Router) OpenFDs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fds)
}
