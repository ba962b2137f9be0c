//go:build linux && (amd64 || arm64)

// Package osfs implements the interposed POSIX boundary against a real
// operating-system directory tree: every posix.Request lands as actual
// system calls on the kernel file system hosting the root. It is the
// "real-workload onramp" backend — mounted beside localfs and the PFS
// model, it lets unmodified applications drive PADLL's rate-limited
// stage with genuine I/O, so passthrough overhead (§IV-A) can be
// measured against the kernel instead of an in-memory model.
//
// The package talks to the kernel, not to package os. New opens the root
// directory once and every path operation is one *at system call
// relative to that descriptor, on the lexically cleaned virtual path
// minus its leading "/" (".." cannot climb above the root, exactly like
// localfs and os.DirFS): openat, fstatat, renameat, unlinkat and so on,
// with the kernel's own refusals (EISDIR from unlinkat of a directory,
// ENOTDIR from unlinkat(AT_REMOVEDIR) of a file) instead of a stat
// followed by the act. The six calls Linux gives no *at form before 6.13
// — truncate and the path xattr calls — name the same root-relative path
// through /proc/self/fd/<root>. Every descriptor operation is the raw
// call on the kernel descriptor, which is also the descriptor the
// boundary reports: the handle table (table.go) is a slab indexed by it.
// This is the Linux amd64/arm64 implementation; elsewhere New reports
// posix.ErrNotSupported.
//
// What is and is not guaranteed about symlinks: absolute targets are
// rewritten into the root on creation and back out on readlink, so a
// link to "/shared/data" stays inside the sandbox and resolves there.
// Relative targets are stored verbatim, and the kernel resolves them: a
// relative link planted inside the tree ("../../etc") still leads out of
// it, as with os.DirFS, so roots handed to New should be trusted
// directories. Closing that needs openat2(RESOLVE_BENEATH), which rejects
// the absolute targets pinned today; with every operation already
// relative to the root descriptor it is a change of symlink-target
// representation plus one flag.
package osfs

import (
	"bytes"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"unsafe"

	"padll/internal/clock"
	"padll/internal/posix"
)

// FS executes interposed requests against a rooted OS directory. It is
// safe for concurrent use: the request path takes no lock, and all I/O
// runs on the kernel's own synchronization.
type FS struct {
	root    string // host path of the root: pinned symlink targets, the root's display name
	rootFD  int    // what every path operation is relative to
	proc    string // "/proc/self/fd/<rootFD>", for the calls with no *at form
	clk     clock.Clock
	handles table
}

var _ posix.FileSystem = (*FS)(nil)

// New returns a file system rooted at dir, which must exist and be a
// directory. The clock stamps modification times the boundary sets
// explicitly (utime), keeping simulated-clock runs deterministic. The
// root descriptor, and any descriptor the application leaked, is closed
// when the FS becomes unreachable.
func New(dir string, clk clock.Clock) (*FS, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Open(abs, oPath|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, mapErr(err)
	}
	o := &FS{root: abs, rootFD: fd, proc: "/proc/self/fd/" + strconv.Itoa(fd), clk: clk}
	runtime.SetFinalizer(o, (*FS).closeAll)
	return o, nil
}

// closeAll closes everything the FS still holds. Nothing can be in
// flight on an unreachable FS, so the reference counts are not consulted.
func (o *FS) closeAll() {
	o.handles.each(func(fd int) { _ = syscall.Close(fd) })
	_ = syscall.Close(o.rootFD)
}

// OpenFDs reports the number of live descriptors (leak tests).
func (o *FS) OpenFDs() int {
	n := 0
	o.handles.each(func(int) { n++ })
	return n
}

// clean canonicalizes a virtual path; empty and relative paths are
// rooted at "/". path.Clean resolves every ".." lexically, so the result
// can never name anything above "/".
func clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		//lint:allow hotpathcheck relative paths only; every layer above sends rooted ones
		p = "/" + p
	}
	return path.Clean(p)
}

// leafName returns the display name of the cleaned virtual path p
// without allocating.
func (o *FS) leafName(p string) string {
	if p == "/" {
		return filepath.Base(o.root)
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

// viaProc names the virtual path p for a system call that takes no
// directory descriptor.
func (o *FS) viaProc(p string) string { return o.proc + clean(p) }

// Apply implements posix.FileSystem, dispatching all 42 operations onto
// the kernel.
func (o *FS) Apply(req *posix.Request, rep *posix.Reply) error {
	err := o.apply(req, rep)
	runtime.KeepAlive(o) // the finalizer must not close the root under a call in flight
	return err
}

func (o *FS) apply(req *posix.Request, rep *posix.Reply) error {
	switch req.Op {
	// ---- metadata ----
	case posix.OpOpen, posix.OpOpen64, posix.OpCreat:
		return o.open(req.Path, req.Flags, req.Mode, rep)
	case posix.OpClose, posix.OpClosedir:
		return o.handles.close(req.FD)
	case posix.OpStat, posix.OpGetAttr:
		return o.stat(req.Path, 0, rep)
	case posix.OpLStat:
		return o.stat(req.Path, atSymlinkNofollow, rep)
	case posix.OpFStat:
		return o.fstat(req.FD, rep)
	case posix.OpSetAttr, posix.OpChmod:
		return o.pathOp(syscall.SYS_FCHMODAT, req.Path, uintptr(req.Mode.Perm()), 0, 0)
	case posix.OpChown:
		// uid/gid travel in the spare numeric fields, as all backends expect.
		return o.pathOp(syscall.SYS_FCHOWNAT, req.Path, uintptr(req.Offset), uintptr(req.Size), 0)
	case posix.OpUtime:
		return o.utime(req.Path)
	case posix.OpStatFS:
		return statfsInto(o.rootFD, &rep.Stat)
	case posix.OpFStatFS:
		return o.fdOp(req.FD, func(fd int) error { return statfsInto(fd, &rep.Stat) })
	case posix.OpRename:
		return o.at2(syscall.SYS_RENAMEAT, clean(req.Path), clean(req.NewPath), 0)
	case posix.OpUnlink:
		// unlinkat refuses directories itself (EISDIR), and with
		// AT_REMOVEDIR refuses everything else (ENOTDIR): no stat first,
		// so no window between the check and the act.
		return o.pathOp(syscall.SYS_UNLINKAT, req.Path, 0, 0, 0)
	case posix.OpLink:
		return o.at2(syscall.SYS_LINKAT, clean(req.Path), clean(req.NewPath), 0)
	case posix.OpSymlink:
		return o.symlink(req.Path, req.NewPath)
	case posix.OpReadlink:
		return o.readlink(req.Path, rep)
	case posix.OpAccess:
		return o.pathOp(syscall.SYS_FACCESSAT, req.Path, 0, 0, 0) // F_OK
	case posix.OpMknod:
		return o.pathOp(syscall.SYS_MKNODAT, req.Path, uintptr(syscall.S_IFREG|req.Mode.Perm()), 0, 0)

	// ---- directory management ----
	case posix.OpMkdir:
		return o.pathOp(syscall.SYS_MKDIRAT, req.Path, uintptr(req.Mode.Perm()), 0, 0)
	case posix.OpRmdir:
		return o.pathOp(syscall.SYS_UNLINKAT, req.Path, atRemoveDir, 0, 0)
	case posix.OpOpendir:
		return o.opendir(req.Path, rep)
	case posix.OpReaddir:
		if req.Path != "" {
			return o.readdirPath(req.Path, rep)
		}
		return o.readdirFD(req.FD, rep)

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
		return o.fdOp(req.FD, syscall.Fsync)
	case posix.OpSync:
		return nil // kernel-wide sync is out of scope
	case posix.OpTruncate:
		if req.Size < 0 {
			return posix.ErrInvalid
		}
		return mapErr(syscall.Truncate(o.viaProc(req.Path), req.Size))
	case posix.OpFTruncate:
		if req.Size < 0 {
			return posix.ErrInvalid
		}
		return o.fdOp(req.FD, func(fd int) error { return syscall.Ftruncate(fd, req.Size) })

	// ---- extended attributes ----
	case posix.OpSetXAttr:
		return mapErr(syscall.Setxattr(o.viaProc(req.Path), req.Name, req.Value, 0))
	case posix.OpGetXAttr, posix.OpLGetXAttr:
		host := o.viaProc(req.Path)
		var err error
		rep.Data, err = sized(func(buf []byte) (int, error) { return syscall.Getxattr(host, req.Name, buf) })
		return err
	case posix.OpFGetXAttr:
		return o.fdOp(req.FD, func(fd int) (err error) {
			rep.Data, err = sized(func(buf []byte) (int, error) { return fgetxattr(fd, req.Name, buf) })
			return err
		})
	case posix.OpListXAttr:
		return o.listxattr(req.Path, rep)
	case posix.OpRemoveXAttr:
		return mapErr(syscall.Removexattr(o.viaProc(req.Path), req.Name))
	}
	return posix.ErrNotSupported
}

// pathOp runs a path system call that returns nothing but its verdict.
//
//lint:hotpath
func (o *FS) pathOp(trap uintptr, p string, a, b, c uintptr) error {
	_, err := o.at(trap, clean(p), a, b, c)
	return err
}

// fdOp runs a descriptor call that returns nothing but its verdict,
// holding a reference on the handle for its duration and retrying
// interrupted calls.
func (o *FS) fdOp(fd int, call func(fd int) error) error {
	h, err := o.handles.acquire(fd)
	if err != nil {
		return err
	}
	for {
		if err = call(fd); err != syscall.EINTR {
			break
		}
	}
	h.release(fd)
	return mapErr(err)
}

// openFlags translates boundary open flags to the kernel's.
func openFlags(flags int) int {
	out := syscall.O_CLOEXEC
	switch flags & (posix.ORdOnly | posix.OWrOnly | posix.ORdWr) {
	case posix.OWrOnly:
		out |= syscall.O_WRONLY
	case posix.ORdWr:
		out |= syscall.O_RDWR
	}
	if flags&posix.OCreate != 0 {
		out |= syscall.O_CREAT
	}
	if flags&posix.OExcl != 0 {
		out |= syscall.O_EXCL
	}
	if flags&posix.OTrunc != 0 {
		out |= syscall.O_TRUNC
	}
	if flags&posix.OAppend != 0 {
		out |= syscall.O_APPEND
	}
	return out
}

//lint:hotpath
func (o *FS) open(p string, flags int, mode posix.FileMode, rep *posix.Reply) error {
	p = clean(p)
	fd, err := o.at(syscall.SYS_OPENAT, p, uintptr(openFlags(flags)), uintptr(mode.Perm()), 0)
	if err != nil {
		return err
	}
	o.handles.install(int(fd), o.leafName(p), false, nil)
	rep.FD = int(fd)
	return nil
}

// stat is one fstatat; flags selects stat(2) or lstat(2) semantics.
//
//lint:hotpath
func (o *FS) stat(p string, flags uintptr, rep *posix.Reply) error {
	p = clean(p)
	var st syscall.Stat_t
	if _, err := o.atPtr(sysFstatat, p, unsafe.Pointer(&st), flags); err != nil {
		return err
	}
	fillInfo(&rep.Info, &st)
	rep.Info.Name = o.leafName(p)
	return nil
}

func (o *FS) fstat(fd int, rep *posix.Reply) error {
	h, err := o.handles.acquire(fd)
	if err != nil {
		return err
	}
	var st syscall.Stat_t
	if err = syscall.Fstat(fd, &st); err == nil {
		fillInfo(&rep.Info, &st)
		rep.Info.Name = h.name
	}
	h.release(fd)
	return mapErr(err)
}

func (o *FS) utime(p string) error {
	ts := syscall.NsecToTimespec(o.clk.Now().UnixNano())
	times := [2]syscall.Timespec{ts, ts}
	_, err := o.atPtr(syscall.SYS_UTIMENSAT, clean(p), unsafe.Pointer(&times), 0)
	return err
}

func (o *FS) symlink(target, linkP string) error {
	linkP = clean(linkP)
	if strings.IndexByte(target, 0) >= 0 || strings.IndexByte(linkP, 0) >= 0 {
		return posix.ErrInvalid
	}
	bp := pathBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	// Absolute virtual targets are pinned inside the root; relative
	// targets are stored verbatim, as ln -s would.
	if strings.HasPrefix(target, "/") {
		buf = append(buf, o.root...)
		if target = clean(target); target == "/" {
			target = ""
		}
	}
	buf = append(append(buf, target...), 0)
	link := len(buf)
	buf = appendRel(buf, linkP)
	_, _, errno := syscall.Syscall(syscall.SYS_SYMLINKAT, uintptr(unsafe.Pointer(&buf[0])),
		uintptr(o.rootFD), uintptr(unsafe.Pointer(&buf[link])))
	*bp = buf
	pathBufs.Put(bp)
	if errno != 0 {
		return mapErr(errno)
	}
	return nil
}

func (o *FS) readlink(p string, rep *posix.Reply) error {
	p = clean(p)
	buf := rep.Data[:cap(rep.Data)]
	if len(buf) < 256 {
		buf = make([]byte, 256)
	}
	for {
		n, err := o.atPtr(syscall.SYS_READLINKAT, p, unsafe.Pointer(&buf[0]), uintptr(len(buf)))
		if err != nil {
			return err
		}
		if int(n) < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf)) // filled to the brim: possibly truncated
	}
	// Undo the absolute-target pinning.
	if r := len(o.root); len(buf) >= r && string(buf[:r]) == o.root && (len(buf) == r || buf[r] == '/') {
		if buf = buf[:copy(buf, buf[r:])]; len(buf) == 0 {
			buf = append(buf, '/')
		}
	}
	rep.Data = buf
	return nil
}

// sortEntries orders a listing by name, the order both opendir snapshots
// and path readdirs report in.
func sortEntries(entries []posix.DirEntry) {
	slices.SortFunc(entries, func(a, b posix.DirEntry) int { return strings.Compare(a.Name, b.Name) })
}

// listDir opens the directory at p and appends its sorted entries,
// returning the descriptor still open. O_DIRECTORY makes a
// non-directory fail with ENOTDIR at the open, so no verifying stat is
// paid; a symlink to a directory is followed.
func (o *FS) listDir(p string, entries []posix.DirEntry) (int, []posix.DirEntry, error) {
	r, err := o.at(syscall.SYS_OPENAT, p, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0, 0)
	if err != nil {
		return -1, entries, err
	}
	fd := int(r)
	if entries, err = appendDirents(entries, fd); err != nil {
		_ = syscall.Close(fd)
		return -1, entries, err
	}
	sortEntries(entries)
	return fd, entries, nil
}

// opendir snapshots the listing for fd-based one-at-a-time streaming.
func (o *FS) opendir(p string, rep *posix.Reply) error {
	p = clean(p)
	fd, entries, err := o.listDir(p, nil)
	if err != nil {
		return err
	}
	o.handles.install(fd, o.leafName(p), true, entries)
	rep.FD = fd
	return nil
}

// readdirPath lists a directory in full: openat, getdents64, close.
func (o *FS) readdirPath(p string, rep *posix.Reply) error {
	fd, entries, err := o.listDir(clean(p), rep.Entries[:0])
	if err != nil {
		return err
	}
	rep.Entries = entries
	return mapErr(syscall.Close(fd))
}

// readdirFD streams one entry per call, as libc readdir does; an empty
// reply is the end of the directory.
func (o *FS) readdirFD(fd int, rep *posix.Reply) error {
	h, err := o.handles.acquire(fd)
	if err != nil {
		return err
	}
	if !h.isDir {
		err = posix.ErrBadFD
	} else if i := h.pos.Add(1) - 1; i < int64(len(h.entries)) {
		rep.Entries = append(rep.Entries[:0], h.entries[i])
	}
	h.release(fd)
	return err
}

// read is one read(2) or pread(2) (offset >= 0) into the reply's buffer;
// end of file is N == 0, not an error (libc semantics).
func (o *FS) read(fd int, size, offset int64, rep *posix.Reply) error {
	h, err := o.handles.acquire(fd)
	if err != nil {
		return err
	}
	if h.isDir {
		h.release(fd)
		return posix.ErrBadFD
	}
	if size <= 0 {
		h.release(fd)
		return nil
	}
	if need := int(size); cap(rep.Data) >= need {
		rep.Data = rep.Data[:need]
	} else {
		rep.Data = make([]byte, need)
	}
	n := 0
	for {
		if offset < 0 {
			n, err = syscall.Read(fd, rep.Data)
		} else {
			n, err = syscall.Pread(fd, rep.Data, offset)
		}
		if err != syscall.EINTR {
			break
		}
	}
	h.release(fd)
	if err != nil {
		rep.Data = rep.Data[:0]
		return mapErr(err)
	}
	rep.N = int64(n)
	rep.Data = rep.Data[:n]
	return nil
}

// zeros is the payload of size-only writes.
var zeros [64 << 10]byte

// write issues write(2) or pwrite(2) (offset >= 0) until the payload is
// out, continuing short writes as os.File did. A nil payload with a size
// is size-only modelling: zeros of that length, so workload generators
// need not materialize buffers.
func (o *FS) write(fd int, data []byte, size, offset int64, rep *posix.Reply) error {
	h, err := o.handles.acquire(fd)
	if err != nil {
		return err
	}
	if h.isDir {
		h.release(fd)
		return posix.ErrBadFD
	}
	total := int64(len(data))
	if data == nil && size > 0 {
		total = size
	}
	var done int64
	for {
		chunk := zeros[:min(total-done, int64(len(zeros)))]
		if data != nil {
			chunk = data[done:]
		}
		var n int
		if offset < 0 {
			n, err = syscall.Write(fd, chunk)
		} else {
			n, err = syscall.Pwrite(fd, chunk, offset+done)
		}
		if err == syscall.EINTR {
			continue
		}
		if err == nil && n == 0 && len(chunk) > 0 {
			err = posix.ErrIO // no progress and no reason
		}
		if done += int64(n); err != nil || done >= total {
			break
		}
	}
	h.release(fd)
	if err != nil {
		return mapErr(err)
	}
	rep.N = done
	return nil
}

func (o *FS) lseek(fd int, offset int64, whence int, rep *posix.Reply) error {
	return o.fdOp(fd, func(fd int) (err error) {
		if whence < 0 || whence > 2 {
			return posix.ErrInvalid
		}
		rep.N, err = syscall.Seek(fd, offset, whence)
		return err
	})
}

func (o *FS) listxattr(p string, rep *posix.Reply) error {
	host := o.viaProc(p)
	list, err := sized(func(buf []byte) (int, error) { return syscall.Listxattr(host, buf) })
	if err != nil {
		return err
	}
	// The kernel returns NUL-terminated names back to back.
	rep.Names = rep.Names[:0]
	for _, name := range bytes.Split(list, []byte{0}) {
		if len(name) > 0 {
			rep.Names = append(rep.Names, string(name))
		}
	}
	return nil
}
