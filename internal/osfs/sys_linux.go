//go:build linux && (amd64 || arm64)

package osfs

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"padll/internal/posix"
)

// The kernel interface. Every path operation is one *at system call on
// the root descriptor and a NUL-terminated root-relative path held in
// pooled scratch: no host-path string is built, the kernel never
// re-walks the root's own prefix, and nothing allocates. The os package
// would follow each openat with four fcntl and a failing epoll_ctl and
// attach a finalizer to a fresh *os.File, Lstat the target of a rename
// and box a fileStat per stat — most of what a bridged operation used to
// pay over a direct one.

const (
	oPath             = 0x200000 // O_PATH, which package syscall does not name
	atSymlinkNofollow = 0x100
	atRemoveDir       = 0x200
	direntBufSize     = 8 << 10
	direntNameOff     = 19 // offsetof(linux_dirent64, d_name)
)

// pathBufs pools the path scratch.
var pathBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendRel appends the cleaned virtual path p as a NUL-terminated path
// relative to the root descriptor.
func appendRel(buf []byte, p string) []byte {
	if p == "/" {
		p = "/."
	}
	// Grows the pooled scratch at most once per pool entry.
	return append(append(buf, p[1:]...), 0)
}

// relScratch takes a scratch from the pool holding the cleaned virtual
// path p as a root-relative C string; the caller puts it back. A NUL
// inside a path would silently end it early, so it is refused.
func relScratch(p string) (*[]byte, error) {
	if strings.IndexByte(p, 0) >= 0 {
		return nil, posix.ErrInvalid
	}
	bp := pathBufs.Get().(*[]byte)
	*bp = appendRel((*bp)[:0], p)
	return bp, nil
}

// mapErr lowers a kernel error onto the boundary sentinels, keeping both
// error identities (see posix.FromFSError); nil stays nil. A refused
// operation may allocate its error.
func mapErr(err error) error {
	switch err {
	case syscall.ENOTDIR:
		return posix.ErrNotDir
	case syscall.EISDIR:
		return posix.ErrIsDir
	case syscall.ENOTEMPTY:
		return posix.ErrNotEmpty
	case syscall.EXDEV:
		return posix.ErrCrossDevice
	case syscall.ENOSPC:
		return posix.ErrNoSpace
	case syscall.ENODATA:
		return posix.ErrNoAttr
	}
	return posix.FromFSError(err)
}

// at issues trap(root, p, a, b, c) for the cleaned virtual path p,
// retrying interrupted calls as the os package does.
func (o *FS) at(trap uintptr, p string, a, b, c uintptr) (uintptr, error) {
	bp, err := relScratch(p)
	if err != nil {
		return 0, err
	}
	for {
		r, _, errno := syscall.Syscall6(trap, uintptr(o.rootFD), uintptr(unsafe.Pointer(&(*bp)[0])), a, b, c, 0)
		if errno == syscall.EINTR {
			continue
		}
		pathBufs.Put(bp)
		if errno != 0 {
			return 0, mapErr(errno)
		}
		return r, nil
	}
}

// atPtr is at for the calls whose third argument is a pointer
// (fstatat, readlinkat, utimensat): it must reach the kernel as one, not
// as a uintptr the collector cannot see.
func (o *FS) atPtr(trap uintptr, p string, ptr unsafe.Pointer, b uintptr) (uintptr, error) {
	bp, err := relScratch(p)
	if err != nil {
		return 0, err
	}
	for {
		r, _, errno := syscall.Syscall6(trap, uintptr(o.rootFD), uintptr(unsafe.Pointer(&(*bp)[0])), uintptr(ptr), b, 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		pathBufs.Put(bp)
		if errno != 0 {
			return 0, mapErr(errno)
		}
		return r, nil
	}
}

// at2 issues trap(root, oldP, root, newP, flags) — renameat, linkat — on
// two cleaned virtual paths sharing one scratch.
func (o *FS) at2(trap uintptr, oldP, newP string, flags uintptr) error {
	if strings.IndexByte(newP, 0) >= 0 {
		return posix.ErrInvalid
	}
	bp, err := relScratch(oldP)
	if err != nil {
		return err
	}
	second := len(*bp)
	*bp = appendRel(*bp, newP)
	_, _, errno := syscall.Syscall6(trap, uintptr(o.rootFD), uintptr(unsafe.Pointer(&(*bp)[0])),
		uintptr(o.rootFD), uintptr(unsafe.Pointer(&(*bp)[second])), flags, 0)
	pathBufs.Put(bp)
	if errno != 0 {
		return mapErr(errno)
	}
	return nil
}

// fillInfo copies the raw stat structure into the boundary payload.
// Name is not derivable from the structure; the caller sets it.
func fillInfo(fi *posix.FileInfo, st *syscall.Stat_t) {
	m := posix.FileMode(st.Mode & 0o777)
	if st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		m |= posix.ModeDir
	}
	fi.Size = st.Size
	fi.Mode = m
	fi.ModTime = time.Unix(int64(st.Mtim.Sec), int64(st.Mtim.Nsec))
	fi.Inode = st.Ino
	fi.Nlink = int(st.Nlink)
	fi.UID = int(st.Uid)
	fi.GID = int(st.Gid)
}

// direntBufs pools getdents64 buffers: a path readdir would otherwise
// allocate (and zero) 8KiB per call.
var direntBufs = sync.Pool{New: func() any { return new([direntBufSize]byte) }}

// appendDirents appends the raw entries of the open directory fd
// (unsorted, without "." and "..") using getdents64, so names, types and
// inodes arrive in one pass instead of one lstat per entry.
func appendDirents(entries []posix.DirEntry, fd int) ([]posix.DirEntry, error) {
	bufp := direntBufs.Get().(*[direntBufSize]byte)
	defer direntBufs.Put(bufp)
	buf := bufp[:]
	for {
		n, err := syscall.ReadDirent(fd, buf)
		if err != nil {
			return entries, mapErr(err)
		}
		if n <= 0 {
			return entries, nil
		}
		b := buf[:n]
		for len(b) >= direntNameOff {
			ino := binary.LittleEndian.Uint64(b)
			reclen := int(binary.LittleEndian.Uint16(b[16:]))
			typ := b[18]
			if reclen < direntNameOff || reclen > len(b) {
				break // malformed record; stop parsing this batch
			}
			nameb := b[direntNameOff:reclen]
			b = b[reclen:]
			i := bytes.IndexByte(nameb, 0)
			if i <= 0 {
				continue // empty or unterminated name
			}
			if nameb[0] == '.' && (i == 1 || (i == 2 && nameb[1] == '.')) {
				continue // "." and "..", skipped before they cost a string
			}
			name := string(nameb[:i])
			isDir := typ == syscall.DT_DIR
			if typ == syscall.DT_UNKNOWN {
				// Filesystems that do not fill d_type force one lstat,
				// relative to the directory and on the record's own
				// NUL-terminated name.
				var st syscall.Stat_t
				if _, _, errno := syscall.Syscall6(sysFstatat, uintptr(fd),
					uintptr(unsafe.Pointer(&nameb[0])), uintptr(unsafe.Pointer(&st)),
					atSymlinkNofollow, 0, 0); errno == 0 {
					isDir = st.Mode&syscall.S_IFMT == syscall.S_IFDIR
				}
			}
			entries = append(entries, posix.DirEntry{Name: name, IsDir: isDir, Inode: ino})
		}
	}
}

// statfsInto fills the boundary's file-system stat payload from
// fstatfs(2) on fd.
func statfsInto(fd int, out *posix.FSStat) error {
	var st syscall.Statfs_t
	if err := syscall.Fstatfs(fd, &st); err != nil {
		return mapErr(err)
	}
	bsize := st.Bsize
	if bsize <= 0 {
		bsize = 4096
	}
	*out = posix.FSStat{
		TotalBytes: int64(st.Blocks) * bsize,
		FreeBytes:  int64(st.Bavail) * bsize,
		TotalFiles: int64(st.Files),
		FreeFiles:  int64(st.Ffree),
	}
	return nil
}

// sized calls read with buffers of doubling size until the kernel stops
// answering ERANGE: the xattr calls report neither value nor list size
// up front without a second call.
func sized(read func(buf []byte) (int, error)) ([]byte, error) {
	for size := 256; ; size *= 2 {
		buf := make([]byte, size)
		n, err := read(buf)
		if err == syscall.ERANGE {
			continue
		}
		if err != nil {
			return nil, mapErr(err)
		}
		return buf[:n], nil
	}
}

// fgetxattr is fgetxattr(2), which package syscall does not wrap.
func fgetxattr(fd int, name string, buf []byte) (int, error) {
	namep, err := syscall.BytePtrFromString(name)
	if err != nil {
		return 0, err
	}
	n, _, errno := syscall.Syscall6(syscall.SYS_FGETXATTR, uintptr(fd), uintptr(unsafe.Pointer(namep)),
		uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)), 0, 0)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}
