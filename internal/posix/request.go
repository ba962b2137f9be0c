package posix

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common file-system errors shared by all backends (localfs, pfs).
var (
	ErrNotExist     = errors.New("posix: no such file or directory")
	ErrExist        = errors.New("posix: file exists")
	ErrIsDir        = errors.New("posix: is a directory")
	ErrNotDir       = errors.New("posix: not a directory")
	ErrNotEmpty     = errors.New("posix: directory not empty")
	ErrBadFD        = errors.New("posix: bad file descriptor")
	ErrInvalid      = errors.New("posix: invalid argument")
	ErrNoAttr       = errors.New("posix: no such attribute")
	ErrCrossDevice  = errors.New("posix: cross-device link")
	ErrNotSupported = errors.New("posix: operation not supported")
	ErrIO           = errors.New("posix: input/output error")
	ErrNoSpace      = errors.New("posix: no space left on device")
)

// Open flags (subset of fcntl.h relevant to the model).
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreate = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400
)

// FileMode carries permission bits and the directory flag.
type FileMode uint32

// ModeDir marks directories.
const ModeDir FileMode = 1 << 31

// IsDir reports whether the mode describes a directory.
func (m FileMode) IsDir() bool { return m&ModeDir != 0 }

// Perm returns the permission bits.
func (m FileMode) Perm() FileMode { return m & 0o777 }

// FileInfo is the stat payload returned by metadata operations.
type FileInfo struct {
	Name    string
	Size    int64
	Mode    FileMode
	ModTime time.Time
	Inode   uint64
	Nlink   int
	UID     int
	GID     int
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name  string
	IsDir bool
	Inode uint64
}

// FSStat is the statfs payload.
type FSStat struct {
	TotalBytes int64
	FreeBytes  int64
	TotalFiles int64
	FreeFiles  int64
}

// Request is one interposed POSIX call, carrying every attribute PADLL's
// request-differentiation step classifies on (§III-A: request type,
// request class, path name, and others) plus the payload parameters the
// backend needs to execute it.
type Request struct {
	Op      Op
	Path    string // primary path (open, stat, mkdir, ...)
	NewPath string // secondary path (rename, link, symlink target)
	FD      int    // fd-based ops (read, write, close, fstat, ...)
	Offset  int64  // pread/pwrite/lseek/truncate
	Size    int64  // read/write byte count, truncate length
	Flags   int    // open flags, lseek whence
	Mode    FileMode
	Data    []byte // write payload (may be nil: size-only modelling)
	Name    string // xattr name
	Value   []byte // xattr value

	// Context attributes used for differentiation and accounting.
	JobID  string
	User   string
	PID    int
	Tenant string
}

// Reply is the result of executing a Request.
type Reply struct {
	FD      int        // open/opendir
	N       int64      // bytes read/written, new offset
	Info    FileInfo   // stat family
	Entries []DirEntry // readdir
	Data    []byte     // read payload / xattr value / readlink target
	Names   []string   // listxattr
	Stat    FSStat     // statfs
}

// String renders a request compactly for logs.
func (r *Request) String() string {
	switch {
	case r.NewPath != "":
		return fmt.Sprintf("%s(%s -> %s)", r.Op, r.Path, r.NewPath)
	case r.Path != "":
		return fmt.Sprintf("%s(%s)", r.Op, r.Path)
	default:
		return fmt.Sprintf("%s(fd=%d)", r.Op, r.FD)
	}
}

// Package-level zero values so //lint:hotpath-annotated resets assign
// instead of building composite literals on the hot path.
var (
	zeroRequest Request
	zeroInfo    FileInfo
	zeroStat    FSStat
)

// Reset clears the request for reuse. Slices are dropped, not truncated:
// a Request never owns its payloads (Data/Value belong to the caller), so
// retaining capacity here would pin caller memory in the pool.
//
//lint:hotpath
func (r *Request) Reset() { *r = zeroRequest }

// Reset clears the reply for reuse while keeping slice capacity, so a
// pooled Reply amortizes its Entries/Data/Names backing arrays across
// requests. Callers that hand a reply slice to application code must
// detach it (nil the field) before resetting, or the next user of the
// scratch will scribble over it.
//
//lint:hotpath
func (r *Reply) Reset() {
	r.FD = 0
	r.N = 0
	r.Info = zeroInfo
	r.Stat = zeroStat
	if r.Entries != nil {
		r.Entries = r.Entries[:0]
	}
	if r.Data != nil {
		r.Data = r.Data[:0]
	}
	if r.Names != nil {
		r.Names = r.Names[:0]
	}
}

// FileSystem is the boundary every layer of the PADLL stack implements:
// concrete backends (the local file system model, the PFS client), the
// interposition shim that wraps them, and test doubles. A single generic
// entry point keeps the shim's per-call interception table trivial to
// compose while the Client type restores a typed API for applications.
//
// Ownership contract (the alloc-free lifecycle depends on it):
//
//   - The caller owns req and rep for the duration of the call; rep
//     arrives Reset (zero scalar fields, zero-length slices). The callee
//     must not retain either pointer — or any slice reachable from them —
//     past its return. A forwarding layer may rewrite the routing fields
//     (Path, NewPath, FD) in place for the layer below, provided they
//     hold the caller's values again when it returns.
//   - The callee fills reply slices by appending into the caller's
//     scratch (rep.Entries = append(rep.Entries[:0], ...)); it must never
//     alias backend-owned memory into rep, because the caller may mutate
//     or recycle the reply as soon as Apply returns.
//   - A caller that exposes a reply slice beyond its own frame (Client
//     returning rep.Data, say) detaches it by nil-ing the field before
//     the reply goes back in a pool.
type FileSystem interface {
	// Apply executes one POSIX request into the caller-provided reply.
	Apply(req *Request, rep *Reply) error
}

// Do applies req against fs with a freshly allocated reply — the
// convenient two-value form for cold callers and tests. Hot paths use
// pooled replies through Client instead.
func Do(fs FileSystem, req *Request) (*Reply, error) {
	rep := new(Reply)
	if err := fs.Apply(req, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// FileSystemFunc adapts a function to the FileSystem interface.
type FileSystemFunc func(req *Request, rep *Reply) error

// Apply implements FileSystem.
func (f FileSystemFunc) Apply(req *Request, rep *Reply) error { return f(req, rep) }

// Request/Reply scratch pools. Interface dispatch makes every *Request
// and *Reply escape at the FileSystem boundary, so per-call stack
// allocation is off the table; pooling is the next best thing and keeps
// the steady-state request path at zero allocations. Exported for
// callers that issue raw requests the way Client does.
var (
	requestPool = sync.Pool{New: func() any { return new(Request) }}
	replyPool   = sync.Pool{New: func() any { return new(Reply) }}
)

// GetRequest returns a zeroed request from the scratch pool.
//
//lint:hotpath
func GetRequest() *Request { return requestPool.Get().(*Request) }

// PutRequest resets the request and returns it to the pool. The caller
// must not touch it afterwards.
//
//lint:hotpath
func PutRequest(r *Request) {
	r.Reset()
	requestPool.Put(r)
}

// GetReply returns a reply from the scratch pool, already Reset.
//
//lint:hotpath
func GetReply() *Reply { return replyPool.Get().(*Reply) }

// PutReply resets the reply (keeping slice capacity) and returns it to
// the pool. Detach any slice handed to application code first.
//
//lint:hotpath
func PutReply(r *Reply) {
	r.Reset()
	replyPool.Put(r)
}
