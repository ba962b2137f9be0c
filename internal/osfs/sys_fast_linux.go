//go:build linux && (amd64 || arm64)

package osfs

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"padll/internal/posix"
)

// Raw-syscall fast paths for the little-endian Linux targets the data
// plane runs on. The point of this file is the interposition tax: an
// os.Stat costs a path copy plus a boxed fileStat per call, which is
// most of what a bridged stat pays over a direct one. Issuing fstatat(2)
// and getdents64(2) ourselves, on pooled NUL-terminated path scratch,
// makes the backend's metadata hot paths allocation-free.

// hasFastStat gates the raw fstatat path in FS.stat.
const hasFastStat = true

const (
	atFDCWD           = -0x64
	atSymlinkNofollow = 0x100
	direntBufSize     = 8 << 10
	direntNameOff     = 19 // offsetof(linux_dirent64, d_name)
)

// statInto stats the NUL-terminated host path into fi without
// allocating. follow selects stat(2) vs lstat(2) semantics.
func statInto(host []byte, follow bool, fi *posix.FileInfo) error {
	var st syscall.Stat_t
	var flags uintptr
	if !follow {
		flags = atSymlinkNofollow
	}
	dirfd := atFDCWD
	_, _, errno := syscall.Syscall6(sysFstatat, uintptr(dirfd),
		uintptr(unsafe.Pointer(&host[0])), uintptr(unsafe.Pointer(&st)), flags, 0, 0)
	if errno != 0 {
		return errno
	}
	fillInfo(fi, &st)
	return nil
}

// direntBufs pools getdents64 buffers: a path readdir would otherwise
// allocate (and zero) 8KiB per call.
var direntBufs = sync.Pool{New: func() any { return new([direntBufSize]byte) }}

// appendDirents appends f's raw directory entries; see appendDirentsFD.
func appendDirents(entries []posix.DirEntry, f *os.File) ([]posix.DirEntry, error) {
	return appendDirentsFD(entries, int(f.Fd()))
}

// appendDirentsAt appends the raw entries of the directory at the
// cleaned virtual path p, issuing openat(2) → getdents64(2) → close(2)
// itself on pooled scratch. os.Open would do the same work behind an
// *os.File: two fcntl to try non-blocking mode, a failing epoll_ctl, two
// more fcntl to undo it, and a finalizer — none of which a directory
// that is listed once and closed has any use for. O_DIRECTORY makes a
// non-directory fail with ENOTDIR at open; a symlink to a directory is
// followed, as before.
func (o *FS) appendDirentsAt(entries []posix.DirEntry, p string) ([]posix.DirEntry, error) {
	bp := pathBufs.Get().(*[]byte)
	*bp = o.appendHost(*bp, p)
	fd, err := openDir(*bp)
	pathBufs.Put(bp)
	if err != nil {
		return entries, err
	}
	entries, err = appendDirentsFD(entries, fd)
	if cerr := syscall.Close(fd); err == nil && cerr != nil {
		err = cerr
	}
	return entries, err
}

// openDir opens the directory at the NUL-terminated host path for
// listing, retrying interrupted opens as the os package does.
func openDir(host []byte) (int, error) {
	dirfd := atFDCWD
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd),
			uintptr(unsafe.Pointer(&host[0])),
			uintptr(syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC), 0, 0, 0)
		switch errno {
		case 0:
			return int(fd), nil
		case syscall.EINTR:
			continue
		}
		return -1, errno
	}
}

// appendDirentsFD appends the raw entries of the open directory fd
// (unsorted, without "." and "..") using getdents64, so names, types and
// inodes arrive in one pass instead of one lstat per entry. Listing a
// non-directory fails with ENOTDIR, which doubles as the opendir type
// check.
func appendDirentsFD(entries []posix.DirEntry, fd int) ([]posix.DirEntry, error) {
	bufp := direntBufs.Get().(*[direntBufSize]byte)
	defer direntBufs.Put(bufp)
	buf := bufp[:]
	for {
		n, err := syscall.ReadDirent(fd, buf)
		if err != nil {
			return entries, err
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
