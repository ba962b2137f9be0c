package osfs

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"unsafe"

	"padll/internal/clock"
	"padll/internal/posix"
)

// BenchmarkOSReaddirPath measures the path readdir of an 8-entry
// directory — the shape of the repository benchmark's walk — on pooled
// request/reply scratch, as the layers above issue it.
func BenchmarkOSReaddirPath(b *testing.B) {
	root := b.TempDir()
	for i := 0; i < 8; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%d", i)), nil, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	o, err := New(root, clock.NewReal())
	if err != nil {
		b.Fatal(err)
	}
	req, rep := posix.GetRequest(), posix.GetReply()
	defer posix.PutRequest(req)
	defer posix.PutReply(rep)
	req.Op, req.Path = posix.OpReaddir, "/"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Apply(req, rep); err != nil || len(rep.Entries) != 8 {
			b.Fatalf("readdir: %d entries, %v", len(rep.Entries), err)
		}
	}
}

// churnCycle is the repository benchmark's write-side cycle: creat,
// close, getattr, open, close, rename, getattr, unlink.
func churnCycle(b *testing.B, o *FS, req *posix.Request, rep *posix.Reply) {
	apply := func(op posix.Op, path, newPath string, fd int) int {
		*req = posix.Request{Op: op, Path: path, NewPath: newPath, FD: fd}
		if op == posix.OpCreat {
			req.Flags, req.Mode = posix.OCreate|posix.OWrOnly|posix.OTrunc, 0o644
		}
		if err := o.Apply(req, rep); err != nil {
			b.Fatalf("%v %s: %v", op, path, err)
		}
		return rep.FD
	}
	fd := apply(posix.OpCreat, "/c", "", 0)
	apply(posix.OpClose, "", "", fd)
	apply(posix.OpGetAttr, "/c", "", 0)
	fd = apply(posix.OpOpen, "/c", "", 0)
	apply(posix.OpClose, "", "", fd)
	apply(posix.OpRename, "/c", "/r", 0)
	apply(posix.OpGetAttr, "/r", "", 0)
	apply(posix.OpUnlink, "/r", "", 0)
}

// ownBlockGroup returns a fresh directory that ext4 places in a block
// group of its choosing (a child of a chattr +T directory), as the
// repository benchmark does for its churn workers. ext4 without a
// journal will not reuse an inode for a while after it was freed, and a
// create in a group full of such inodes scans them all: in the group
// every other test's TempDir shares, this benchmark's creates cost
// anything from 1 to 15 microseconds depending on what ran in the last
// minute. Other file systems refuse the flag, which is fine.
func ownBlockGroup(b *testing.B) string {
	const getFlags, setFlags, topDir = 0x80086601, 0x40086602, 0x00020000
	parent := b.TempDir()
	if fd, err := syscall.Open(parent, syscall.O_RDONLY|syscall.O_DIRECTORY, 0); err == nil {
		var flags uint32
		if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), getFlags, uintptr(unsafe.Pointer(&flags))); e == 0 {
			flags |= topDir
			_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), setFlags, uintptr(unsafe.Pointer(&flags)))
		}
		_ = syscall.Close(fd)
	}
	dir := filepath.Join(parent, "w")
	if err := os.Mkdir(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkOSChurnCycle measures that cycle through FS.Apply on pooled
// request/reply scratch. One iteration is eight operations, eight system
// calls and no allocation: `make bench-diff` holds it to 0 allocs/op.
func BenchmarkOSChurnCycle(b *testing.B) {
	o, err := New(ownBlockGroup(b), clock.NewReal())
	if err != nil {
		b.Fatal(err)
	}
	req, rep := posix.GetRequest(), posix.GetReply()
	defer posix.PutRequest(req)
	defer posix.PutReply(rep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnCycle(b, o, req, rep)
	}
}

// BenchmarkOSOpenClose measures the handle table's round trip: openat,
// slot install, slot vacate, close.
func BenchmarkOSOpenClose(b *testing.B) {
	root := b.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f"), nil, 0o644); err != nil {
		b.Fatal(err)
	}
	o, err := New(root, clock.NewReal())
	if err != nil {
		b.Fatal(err)
	}
	req, rep := posix.GetRequest(), posix.GetReply()
	defer posix.PutRequest(req)
	defer posix.PutReply(rep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*req = posix.Request{Op: posix.OpOpen, Path: "/f"}
		if err := o.Apply(req, rep); err != nil {
			b.Fatal(err)
		}
		*req = posix.Request{Op: posix.OpClose, FD: rep.FD}
		if err := o.Apply(req, rep); err != nil {
			b.Fatal(err)
		}
	}
}
