//go:build linux && (amd64 || arm64)

package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// The ladder's floor: the stream issued as raw system calls on
// pre-built NUL-terminated host paths, so the rung pays for the kernel
// and nothing else — no path copy, no os.File, no FileInfo.

const atFDCWD = -0x64

// fstatat(2) is the one trap the syscall package names differently per
// architecture.
var sysFstatat uintptr = 262 // SYS_NEWFSTATAT on amd64

func init() {
	if runtime.GOARCH == "arm64" {
		sysFstatat = 79 // SYS_FSTATAT
	}
}

func errnoErr(e syscall.Errno) error {
	if e != 0 {
		return e
	}
	return nil
}

func rawOpen(host []byte, flags int) (int, error) {
	fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(atFDCWD&(1<<64-1)),
		uintptr(unsafe.Pointer(&host[0])), uintptr(flags|syscall.O_CLOEXEC), 0o644, 0, 0)
	return int(fd), errnoErr(e)
}

// kernelStep replays a stream as raw system calls.
func kernelStep() stepper {
	var st syscall.Stat_t
	fd := -1
	dirents := make([]byte, 8<<10)
	at := uintptr(atFDCWD & (1<<64 - 1))
	return func(op *streamOp) (err error) {
		switch op.kind {
		case opStat, opGetAttr:
			_, _, e := syscall.Syscall6(sysFstatat, at, uintptr(unsafe.Pointer(&op.host[0])), uintptr(unsafe.Pointer(&st)), 0, 0, 0)
			return errnoErr(e)
		case opReaddir:
			d, err := rawOpen(op.host, syscall.O_RDONLY|syscall.O_DIRECTORY)
			if err != nil {
				return err
			}
			for {
				n, err := syscall.ReadDirent(d, dirents)
				if err != nil || n <= 0 {
					break
				}
			}
			return syscall.Close(d)
		case opCreat:
			fd, err = rawOpen(op.host, syscall.O_CREAT|syscall.O_WRONLY|syscall.O_TRUNC)
		case opOpen:
			fd, err = rawOpen(op.host, syscall.O_RDONLY)
		case opClose:
			err = syscall.Close(fd)
		case opRename:
			_, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, at, uintptr(unsafe.Pointer(&op.host[0])), at, uintptr(unsafe.Pointer(&op.newHost[0])), 0, 0)
			return errnoErr(e)
		case opUnlink:
			_, _, e := syscall.Syscall(syscall.SYS_UNLINKAT, at, uintptr(unsafe.Pointer(&op.host[0])), 0)
			return errnoErr(e)
		}
		return err
	}
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "unknown"
}

// spreadSubdirs marks dir so that ext4 treats its subdirectories as
// top-level ones (chattr +T) and places each in a block group of its
// own choosing, away from its siblings. ext4 without a journal will not
// reuse an inode for a minute after it was freed, and every create in a
// block group full of such inodes scans them all: unspread, the
// removal of one run's 9k-inode walk tree slows the churn workload's
// creates twentyfold for the next minute. Other file systems refuse
// the flag, which is fine.
func spreadSubdirs(dir string) {
	const getFlags, setFlags, topDir = 0x80086601, 0x40086602, 0x00020000
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY, 0)
	if err != nil {
		return
	}
	defer syscall.Close(fd)
	var flags uint32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), getFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), setFlags, uintptr(unsafe.Pointer(&flags)))
}
