// Package osfs implements the interposed POSIX boundary against a real
// operating-system directory tree: every posix.Request lands as actual
// syscalls on the kernel file system hosting the root. It is the
// "real-workload onramp" backend — mounted beside localfs and the PFS
// model, it lets unmodified applications drive PADLL's rate-limited
// stage with genuine I/O, so passthrough overhead (§IV-A) can be
// measured against the kernel instead of an in-memory model.
//
// The file system is rooted: virtual paths are cleaned lexically (".."
// cannot climb above the root, exactly like localfs and os.DirFS) and
// then joined onto the host root. Absolute symlink targets are rewritten
// into the root on creation and back out on readlink, so a link to
// "/shared/data" stays inside the sandbox. Relative symlink targets are
// stored verbatim and — as with os.DirFS — a hostile pre-existing tree
// could use them to escape; roots handed to New should be trusted
// directories.
//
// Descriptors are virtualized through an fd table exactly like
// mount.Router's: the application sees small integers allocated here,
// never the kernel's, so fd-based follow-ups (read, fstat, readdir
// streaming, close) translate to the right *os.File.
package osfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"padll/internal/clock"
	"padll/internal/posix"
)

// handle is one virtual-descriptor-table entry.
type handle struct {
	f     *os.File
	name  string // display name for fstat (base of the virtual path)
	isDir bool
	// dirSnapshot holds the entry list captured at opendir time, for
	// fd-based one-at-a-time readdir streaming.
	dirSnapshot []posix.DirEntry
	dirPos      int
}

// FS executes interposed requests against a rooted OS directory. It is
// safe for concurrent use: the lock guards only the fd table, and all
// I/O happens outside it on the kernel's own synchronization.
type FS struct {
	root string
	clk  clock.Clock

	mu     sync.Mutex
	fds    map[int]*handle
	nextFD int
}

var _ posix.FileSystem = (*FS)(nil)

// New returns a file system rooted at dir, which must exist and be a
// directory. The clock stamps modification times the boundary sets
// explicitly (utime), keeping simulated-clock runs deterministic.
func New(dir string, clk clock.Clock) (*FS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, mapErr(err)
	}
	if !info.IsDir() {
		return nil, posix.ErrNotDir
	}
	return &FS{root: abs, clk: clk, fds: make(map[int]*handle), nextFD: 3}, nil
}

// Root returns the host directory backing the virtual namespace.
func (o *FS) Root() string { return o.root }

// clean canonicalizes a virtual path; empty and relative paths are
// rooted at "/". path.Clean resolves every ".." lexically, so the result
// can never name anything above "/".
func clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// resolve maps a virtual path onto the host tree.
func (o *FS) resolve(p string) string {
	p = clean(p)
	if p == "/" {
		return o.root
	}
	return filepath.Join(o.root, filepath.FromSlash(p[1:]))
}

// pathBufs pools NUL-terminated host-path scratch for the raw-syscall
// fast paths, so a steady-state stat costs zero allocations.
var pathBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendHost appends the NUL-terminated host path for the cleaned
// virtual path p into buf (for raw syscalls that want a C string). Only
// used on platforms where the virtual separator is the host separator.
func (o *FS) appendHost(buf []byte, p string) []byte {
	buf = append(buf[:0], o.root...)
	if p != "/" {
		buf = append(buf, p...)
	}
	return append(buf, 0)
}

// leafName returns the display name of the cleaned virtual path p: the
// base of the host path it resolves to, without allocating.
func (o *FS) leafName(p string) string {
	if p == "/" {
		return filepath.Base(o.root)
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

// virtualize maps a host path back into the virtual namespace when it
// lies under the root; ok is false otherwise.
func (o *FS) virtualize(host string) (string, bool) {
	if host == o.root {
		return "/", true
	}
	prefix := o.root + string(filepath.Separator)
	if !strings.HasPrefix(host, prefix) {
		return "", false
	}
	return "/" + filepath.ToSlash(host[len(prefix):]), true
}

// openFlags translates boundary open flags to the os package's.
func openFlags(flags int) int {
	var out int
	switch flags & (posix.ORdOnly | posix.OWrOnly | posix.ORdWr) {
	case posix.OWrOnly:
		out = os.O_WRONLY
	case posix.ORdWr:
		out = os.O_RDWR
	default:
		out = os.O_RDONLY
	}
	if flags&posix.OCreate != 0 {
		out |= os.O_CREATE
	}
	if flags&posix.OExcl != 0 {
		out |= os.O_EXCL
	}
	if flags&posix.OTrunc != 0 {
		out |= os.O_TRUNC
	}
	if flags&posix.OAppend != 0 {
		out |= os.O_APPEND
	}
	return out
}

// mapErr lowers an OS error onto the boundary sentinels, preserving the
// detailed message and both error identities (see posix.FromFSError).
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case isErrno(err, errnoNotDir):
		return posix.ErrNotDir
	case isErrno(err, errnoIsDir):
		return posix.ErrIsDir
	case isErrno(err, errnoNotEmpty):
		return posix.ErrNotEmpty
	case isErrno(err, errnoXDev):
		return posix.ErrCrossDevice
	case isErrno(err, errnoNoSpace):
		return posix.ErrNoSpace
	case isErrno(err, errnoNoAttr):
		return posix.ErrNoAttr
	}
	return posix.FromFSError(err)
}

// lookupFD resolves a virtual descriptor.
func (o *FS) lookupFD(fd int) (*handle, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.fds[fd]
	if !ok {
		return nil, posix.ErrBadFD
	}
	return h, nil
}

// insertFD allocates a virtual descriptor for h.
func (o *FS) insertFD(h *handle) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	fd := o.nextFD
	o.nextFD++
	o.fds[fd] = h
	return fd
}

// removeFD releases a virtual descriptor, returning its handle.
func (o *FS) removeFD(fd int) (*handle, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.fds[fd]
	if !ok {
		return nil, posix.ErrBadFD
	}
	delete(o.fds, fd)
	return h, nil
}

// OpenFDs reports the number of live virtual descriptors (leak tests).
func (o *FS) OpenFDs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.fds)
}

// infoFor converts one os.FileInfo, filling the platform fields (inode,
// nlink, uid, gid) where the host exposes them.
func infoFor(info fs.FileInfo) posix.FileInfo {
	fi := posix.FileInfoFromFS(info)
	ino, nlink, uid, gid, ok := sysFields(info)
	if ok {
		fi.Inode, fi.Nlink, fi.UID, fi.GID = ino, nlink, uid, gid
	}
	return fi
}

// Apply implements posix.FileSystem, dispatching all 42 operations onto
// the kernel.
func (o *FS) Apply(req *posix.Request, rep *posix.Reply) error {
	switch req.Op {
	// ---- metadata ----
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat:
		return o.open(req, rep)
	case posix.OpClose, posix.OpClosedir:
		return o.close(req.FD, rep)
	case posix.OpStat, posix.OpGetAttr:
		return o.stat(req.Path, true, rep)
	case posix.OpLStat:
		return o.stat(req.Path, false, rep)
	case posix.OpFStat:
		return o.fstat(req.FD, rep)
	case posix.OpSetAttr, posix.OpChmod:
		return o.chmod(req.Path, req.Mode, rep)
	case posix.OpChown:
		return o.chown(req, rep)
	case posix.OpUtime:
		return o.utime(req.Path, rep)
	case posix.OpStatFS, posix.OpFStatFS:
		return o.statfs(rep)
	case posix.OpRename:
		return o.rename(req.Path, req.NewPath, rep)
	case posix.OpUnlink:
		return o.unlink(req.Path, rep)
	case posix.OpLink:
		return o.link(req.Path, req.NewPath, rep)
	case posix.OpSymlink:
		return o.symlink(req.Path, req.NewPath, rep)
	case posix.OpReadlink:
		return o.readlink(req.Path, rep)
	case posix.OpAccess:
		return o.access(req.Path, rep)
	case posix.OpMknod:
		return o.mknod(req.Path, req.Mode, rep)

	// ---- directory management ----
	case posix.OpMkdir:
		return o.mkdir(req.Path, req.Mode, rep)
	case posix.OpRmdir:
		return o.rmdir(req.Path, rep)
	case posix.OpOpendir:
		return o.opendir(req.Path, rep)
	case posix.OpReaddir:
		return o.readdir(req, rep)

	// ---- data ----
	case posix.OpRead:
		return o.read(req.FD, req.Size, -1, rep)
	case posix.OpPRead:
		return o.read(req.FD, req.Size, req.Offset, rep)
	case posix.OpWrite:
		return o.write(req.FD, req.Data, req.Size, -1, rep)
	case posix.OpPWrite:
		return o.write(req.FD, req.Data, req.Size, req.Offset, rep)
	case posix.OpLSeek:
		return o.lseek(req.FD, req.Offset, req.Flags, rep)
	case posix.OpFSync, posix.OpFDataSync:
		return o.fsync(req.FD, rep)
	case posix.OpSync:
		return nil // kernel-wide sync is out of scope
	case posix.OpTruncate:
		return o.truncate(req.Path, req.Size, rep)
	case posix.OpFTruncate:
		return o.ftruncate(req.FD, req.Size, rep)

	// ---- extended attributes ----
	case posix.OpSetXAttr:
		return o.setxattr(req.Path, req.Name, req.Value, rep)
	case posix.OpGetXAttr, posix.OpLGetXAttr:
		return o.getxattr(req.Path, req.Name, rep)
	case posix.OpFGetXAttr:
		return o.fgetxattr(req.FD, req.Name, rep)
	case posix.OpListXAttr:
		return o.listxattr(req.Path, rep)
	case posix.OpRemoveXAttr:
		return o.removexattr(req.Path, req.Name, rep)
	}
	return posix.ErrNotSupported
}

func (o *FS) open(req *posix.Request, rep *posix.Reply) error {
	p := clean(req.Path)
	f, err := os.OpenFile(o.resolve(p), openFlags(req.Flags), os.FileMode(req.Mode.Perm()))
	if err != nil {
		return mapErr(err)
	}
	fd := o.insertFD(&handle{f: f, name: o.leafName(p)})
	rep.FD = fd
	return nil
}

func (o *FS) close(fd int, rep *posix.Reply) error {
	h, err := o.removeFD(fd)
	if err != nil {
		return err
	}
	if cerr := h.f.Close(); cerr != nil {
		return mapErr(cerr)
	}
	return nil
}

// stat resolves and stats p; follow selects stat(2) vs lstat(2)
// semantics. On Linux it runs as one raw fstatat on pooled path scratch
// — no allocations — which is what keeps the bridged-Stat budget at the
// two unavoidable caller-side allocations.
func (o *FS) stat(p string, follow bool, rep *posix.Reply) error {
	if hasFastStat {
		p = clean(p)
		bp := pathBufs.Get().(*[]byte)
		*bp = o.appendHost(*bp, p)
		err := statInto(*bp, follow, &rep.Info)
		pathBufs.Put(bp)
		if err != nil {
			return mapErr(err)
		}
		rep.Info.Name = o.leafName(p)
		return nil
	}
	statf := os.Stat
	if !follow {
		statf = os.Lstat
	}
	info, err := statf(o.resolve(p))
	if err != nil {
		return mapErr(err)
	}
	rep.Info = infoFor(info)
	return nil
}

func (o *FS) fstat(fd int, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if hasRawFstat {
		if ferr := fstatInto(h.f.Fd(), &rep.Info); ferr != nil {
			return mapErr(ferr)
		}
		rep.Info.Name = h.name
		return nil
	}
	info, serr := h.f.Stat()
	if serr != nil {
		return mapErr(serr)
	}
	rep.Info = infoFor(info)
	return nil
}

func (o *FS) chmod(p string, mode posix.FileMode, rep *posix.Reply) error {
	if err := os.Chmod(o.resolve(p), os.FileMode(mode.Perm())); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) chown(req *posix.Request, rep *posix.Reply) error {
	// uid/gid travel in the spare numeric fields, as all backends expect.
	if err := os.Chown(o.resolve(req.Path), int(req.Offset), int(req.Size)); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) utime(p string, rep *posix.Reply) error {
	now := o.clk.Now()
	if err := os.Chtimes(o.resolve(p), now, now); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) rename(oldP, newP string, rep *posix.Reply) error {
	if err := os.Rename(o.resolve(oldP), o.resolve(newP)); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) unlink(p string, rep *posix.Reply) error {
	host := o.resolve(p)
	info, err := os.Lstat(host)
	if err != nil {
		return mapErr(err)
	}
	if info.IsDir() {
		return posix.ErrIsDir // unlink(2) refuses directories
	}
	if rerr := os.Remove(host); rerr != nil {
		return mapErr(rerr)
	}
	return nil
}

func (o *FS) link(oldP, newP string, rep *posix.Reply) error {
	if err := os.Link(o.resolve(oldP), o.resolve(newP)); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) symlink(target, linkP string, rep *posix.Reply) error {
	// Absolute virtual targets are pinned inside the root; relative
	// targets are stored verbatim, as ln -s would.
	host := target
	if strings.HasPrefix(target, "/") {
		host = o.resolve(target)
	}
	if err := os.Symlink(host, o.resolve(linkP)); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) readlink(p string, rep *posix.Reply) error {
	target, err := os.Readlink(o.resolve(p))
	if err != nil {
		return mapErr(err)
	}
	if v, ok := o.virtualize(target); ok {
		target = v // undo the absolute-target pinning
	}
	rep.Data = []byte(target)
	return nil
}

func (o *FS) access(p string, rep *posix.Reply) error {
	if _, err := os.Stat(o.resolve(p)); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) mknod(p string, mode posix.FileMode, rep *posix.Reply) error {
	f, err := os.OpenFile(o.resolve(p), os.O_CREATE|os.O_EXCL|os.O_WRONLY, os.FileMode(mode.Perm()))
	if err != nil {
		return mapErr(err)
	}
	if cerr := f.Close(); cerr != nil {
		return mapErr(cerr)
	}
	return nil
}

func (o *FS) mkdir(p string, mode posix.FileMode, rep *posix.Reply) error {
	if err := os.Mkdir(o.resolve(p), os.FileMode(mode.Perm())); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) rmdir(p string, rep *posix.Reply) error {
	host := o.resolve(p)
	info, err := os.Lstat(host)
	if err != nil {
		return mapErr(err)
	}
	if !info.IsDir() {
		return posix.ErrNotDir
	}
	if rerr := os.Remove(host); rerr != nil {
		return mapErr(rerr)
	}
	return nil
}

// sortEntries orders a listing by name, the order both opendir snapshots
// and path readdirs report in.
func sortEntries(entries []posix.DirEntry) {
	slices.SortFunc(entries, func(a, b posix.DirEntry) int { return strings.Compare(a.Name, b.Name) })
}

// snapshotDir reads and sorts a directory's entries into an owned slice
// (opendir handles retain their snapshot across readdir calls). The
// platform listing (raw getdents64 on Linux) reports names, types and
// inodes in one pass, so no per-entry stat is paid; it also fails with
// ENOTDIR on non-directory targets, which is why neither opendir nor the
// path readdir needs a verifying stat of its own.
func snapshotDir(f *os.File) ([]posix.DirEntry, error) {
	entries, err := appendDirents(nil, f)
	if err != nil {
		return nil, mapErr(err)
	}
	sortEntries(entries)
	return entries, nil
}

func (o *FS) opendir(p string, rep *posix.Reply) error {
	p = clean(p)
	f, err := os.Open(o.resolve(p))
	if err != nil {
		return mapErr(err)
	}
	// No verifying stat: listing a non-directory fails with ENOTDIR,
	// which maps to the same refusal one syscall cheaper.
	snap, derr := snapshotDir(f)
	if derr != nil {
		_ = f.Close()
		return derr
	}
	fd := o.insertFD(&handle{f: f, name: o.leafName(p), isDir: true, dirSnapshot: snap})
	rep.FD = fd
	return nil
}

// readdir supports both path-based full listing and fd-based streaming
// (one entry per call, as libc readdir does).
func (o *FS) readdir(req *posix.Request, rep *posix.Reply) error {
	if req.Path != "" {
		entries, err := o.appendDirentsAt(rep.Entries[:0], clean(req.Path))
		if err != nil {
			return mapErr(err)
		}
		sortEntries(entries)
		rep.Entries = entries
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.fds[req.FD]
	if !ok || !h.isDir {
		return posix.ErrBadFD
	}
	if h.dirPos >= len(h.dirSnapshot) {
		return nil // end of directory
	}
	e := h.dirSnapshot[h.dirPos]
	h.dirPos++
	rep.Entries = append(rep.Entries[:0], e)
	return nil
}

func (o *FS) read(fd int, size, offset int64, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if h.isDir {
		return posix.ErrBadFD
	}
	if size <= 0 {
		return nil
	}
	if need := int(size); cap(rep.Data) >= need {
		rep.Data = rep.Data[:need]
	} else {
		rep.Data = make([]byte, need)
	}
	var n int
	var rerr error
	if offset < 0 {
		n, rerr = h.f.Read(rep.Data)
	} else {
		n, rerr = h.f.ReadAt(rep.Data, offset)
	}
	if rerr != nil && !errors.Is(rerr, io.EOF) {
		rep.Data = rep.Data[:0]
		return mapErr(rerr)
	}
	rep.N = int64(n)
	rep.Data = rep.Data[:n]
	return nil
}

func (o *FS) write(fd int, data []byte, size, offset int64, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if h.isDir {
		return posix.ErrBadFD
	}
	if data == nil && size > 0 {
		// Size-only modelling: synthesize a zero payload of the given
		// size so workload generators need not materialize buffers.
		data = make([]byte, size)
	}
	var n int
	var werr error
	if offset < 0 {
		n, werr = h.f.Write(data)
	} else {
		n, werr = h.f.WriteAt(data, offset)
	}
	if werr != nil {
		return mapErr(werr)
	}
	rep.N = int64(n)
	return nil
}

func (o *FS) lseek(fd int, offset int64, whence int, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if whence < io.SeekStart || whence > io.SeekEnd {
		return posix.ErrInvalid
	}
	np, serr := h.f.Seek(offset, whence)
	if serr != nil {
		return mapErr(serr)
	}
	rep.N = np
	return nil
}

func (o *FS) fsync(fd int, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if serr := h.f.Sync(); serr != nil {
		return mapErr(serr)
	}
	return nil
}

func (o *FS) truncate(p string, size int64, rep *posix.Reply) error {
	if size < 0 {
		return posix.ErrInvalid
	}
	if err := os.Truncate(o.resolve(p), size); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) ftruncate(fd int, size int64, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	if size < 0 {
		return posix.ErrInvalid
	}
	if terr := h.f.Truncate(size); terr != nil {
		return mapErr(terr)
	}
	return nil
}

func (o *FS) setxattr(p, name string, value []byte, rep *posix.Reply) error {
	if err := setxattr(o.resolve(p), name, value); err != nil {
		return mapErr(err)
	}
	return nil
}

func (o *FS) getxattr(p, name string, rep *posix.Reply) error {
	v, err := getxattr(o.resolve(p), name)
	if err != nil {
		return mapErr(err)
	}
	rep.Data = v
	return nil
}

func (o *FS) fgetxattr(fd int, name string, rep *posix.Reply) error {
	h, err := o.lookupFD(fd)
	if err != nil {
		return err
	}
	v, xerr := getxattr(h.f.Name(), name)
	if xerr != nil {
		return mapErr(xerr)
	}
	rep.Data = v
	return nil
}

func (o *FS) listxattr(p string, rep *posix.Reply) error {
	names, err := listxattr(o.resolve(p))
	if err != nil {
		return mapErr(err)
	}
	rep.Names = names
	return nil
}

func (o *FS) removexattr(p, name string, rep *posix.Reply) error {
	if err := removexattr(o.resolve(p), name); err != nil {
		return mapErr(err)
	}
	return nil
}
