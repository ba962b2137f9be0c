package osfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"padll/internal/clock"
	"padll/internal/posix"
)

// The boundary reports kernel descriptors, so the handle table is what
// stands between an application's integer and the host process's other
// descriptors. These tests pin the three things it promises; run them
// under -race.

// procFDs counts the process's open descriptors.
func procFDs(t *testing.T) int {
	t.Helper()
	names, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// collectDropped runs the finalizers of every FS earlier tests dropped, so
// that none of them closes its root descriptor in the middle of a count.
// Finalizers run one after another on one goroutine: once the second
// sentinel's has run, everything the first collection queued has too.
func collectDropped() {
	for i := 0; i < 2; i++ {
		ran := make(chan struct{})
		runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(ran) })
		runtime.GC()
		<-ran
	}
}

// fdOf finds the descriptor the process holds on the host path.
func fdOf(t *testing.T, host string) int {
	t.Helper()
	names, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if target, err := os.Readlink("/proc/self/fd/" + n.Name()); err == nil && target == host {
			fd, _ := strconv.Atoi(n.Name())
			return fd
		}
	}
	t.Fatalf("no descriptor open on %s", host)
	return -1
}

// fdOps is every operation that names its target by descriptor.
var fdOps = []posix.Op{
	posix.OpClose, posix.OpClosedir, posix.OpFStat, posix.OpFStatFS, posix.OpReaddir,
	posix.OpRead, posix.OpPRead, posix.OpWrite, posix.OpPWrite, posix.OpLSeek,
	posix.OpFSync, posix.OpFDataSync, posix.OpFTruncate, posix.OpFGetXAttr,
}

// TestForeignDescriptorsAreBadFD: a descriptor the FS did not open is
// ErrBadFD for every descriptor operation, and is left alone.
func TestForeignDescriptorsAreBadFD(t *testing.T) {
	o, root := newFS(t)
	c := posix.NewClient(o)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	closed, err := c.Creat("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(closed); err != nil {
		t.Fatal(err)
	}
	resolved, err := filepath.EvalSymlinks(root)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string]int{
		"stdin": 0, "stdout": 1, "stderr": 2, "the root descriptor": fdOf(t, resolved),
		"a pipe's read end": int(r.Fd()), "a pipe's write end": int(w.Fd()),
		"a descriptor just closed": closed, "a negative number": -1, "a number never issued": 1 << 20,
	}
	for what, fd := range foreign {
		for _, op := range fdOps {
			_, err := posix.Do(o, &posix.Request{Op: op, FD: fd, Size: 1, Data: []byte("x"), Name: "user.padll"})
			if !errors.Is(err, posix.ErrBadFD) {
				t.Errorf("%v on %s (fd %d): %v, want ErrBadFD", op, what, fd, err)
			}
		}
	}

	// Nothing was closed, written or truncated on the way.
	var st syscall.Stat_t
	for fd := 0; fd <= 2; fd++ {
		if err := syscall.Fstat(fd, &st); err != nil {
			t.Errorf("fd %d did not survive: %v", fd, err)
		}
	}
	if _, err := w.Write([]byte("ping")); err != nil {
		t.Errorf("pipe write end did not survive: %v", err)
	}
	got := make([]byte, 8)
	if n, err := r.Read(got); err != nil || string(got[:n]) != "ping" {
		t.Errorf("pipe carried %q, %v: something else was written to or read from it", got[:n], err)
	}
	if _, err := c.Stat("/f"); err != nil {
		t.Errorf("the root descriptor did not survive: %v", err)
	}
}

// TestCloseRacesUseOnRecycledDescriptors: owners open and close files as
// fast as they can, so the kernel reissues the same few numbers over and
// over, while readers use whatever numbers are live. An operation that
// looked up a handle must finish on that handle's file, even when the
// close and the next open of the same number happen underneath it.
//
// fstat is the detector: its reply pairs the name the table remembers
// with the size the kernel reports, and file f<i> is i+1 bytes of 'a'+i,
// so a reply whose two halves disagree is a read that landed on a file
// that inherited the number. owner[fd] carries a unique stamp from just
// after the open to just before the close; a reader that sees the same
// stamp on both sides of its call knows no close had begun, and then the
// call must also have succeeded, on that stamp's file.
func TestCloseRacesUseOnRecycledDescriptors(t *testing.T) {
	const files, owners, readers, cycles = 8, 4, 4, 2000
	collectDropped()
	o, root := newFS(t)
	for i := 0; i < files; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%d", i)), bytes.Repeat([]byte{byte('a' + i)}, i+1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := procFDs(t)

	var owner [256]atomic.Uint64 // fd -> stamp<<8 | file+1; 0 when no handle is settled on it
	var stamps, checked atomic.Uint64
	done := make(chan struct{})
	var ownersWG, readersWG sync.WaitGroup

	// check validates one reply against the file it claims to be from.
	check := func(what string, file int, before, after uint64, err error) {
		stable := before == after
		switch {
		case err != nil && (stable || !errors.Is(err, posix.ErrBadFD)):
			t.Errorf("%s: %v (stable handle: %v)", what, err, stable)
		case err == nil && stable && file != int(before&0xff)-1:
			t.Errorf("%s answered for f%d, the handle was on f%d", what, file, int(before&0xff)-1)
		case err == nil:
			checked.Add(1)
		}
	}

	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			c := posix.NewClient(o)
			buf := make([]byte, 2*files)
			for fd := 0; ; fd = (fd + 1) % len(owner) {
				if fd == 0 {
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
				before := owner[fd].Load()
				if before == 0 {
					continue
				}
				if (fd+r)%2 == 0 {
					info, err := c.FStat(fd)
					after := owner[fd].Load()
					file := int(info.Size) - 1
					if err == nil && info.Name != fmt.Sprintf("f%d", file) {
						t.Errorf("fstat(%d): the table says %s, the kernel says %d bytes", fd, info.Name, info.Size)
					}
					check("fstat", file, before, after, err)
				} else {
					n, err := c.PReadInto(fd, buf, 0)
					after := owner[fd].Load()
					file := n - 1
					if err == nil && (n == 0 || !bytes.Equal(buf[:n], bytes.Repeat([]byte{byte('a' + file)}, n))) {
						t.Errorf("pread(%d): %q is no file's content", fd, buf[:n])
					}
					check("pread", file, before, after, err)
				}
			}
		}(r)
	}
	for w := 0; w < owners; w++ {
		ownersWG.Add(1)
		go func(w int) {
			defer ownersWG.Done()
			c := posix.NewClient(o)
			for i := 0; i < cycles; i++ {
				file := (w + i) % files
				fd, err := c.Open(fmt.Sprintf("/f%d", file), posix.ORdOnly, 0)
				if err != nil || fd >= len(owner) {
					t.Errorf("open: fd %d, %v", fd, err)
					return
				}
				owner[fd].Store(stamps.Add(1)<<8 | uint64(file+1))
				runtime.Gosched() // let a reader in
				owner[fd].Store(0)
				if err := c.Close(fd); err != nil {
					t.Errorf("close(%d): %v", fd, err)
				}
			}
		}(w)
	}
	ownersWG.Wait()
	close(done)
	readersWG.Wait()

	if checked.Load() == 0 {
		t.Error("no reader ever got through: the test exercised nothing")
	}
	if n := o.OpenFDs(); n != 0 {
		t.Errorf("%d handles left in the table", n)
	}
	if after := procFDs(t); after != before {
		t.Errorf("%d descriptors open after the run, %d before", after, before)
	}
}

// TestTableGrowsByChunks: handles past the first chunk work like the
// first, and a chunk nobody opened into costs nothing and holds nothing.
func TestTableGrowsByChunks(t *testing.T) {
	o, _ := newFS(t)
	c := posix.NewClient(o)
	var fds []int
	for i := 0; i < 2*chunkSize+10; i++ {
		fd, err := c.Open("/", posix.ORdOnly, 0)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		fds = append(fds, fd)
	}
	if n := o.OpenFDs(); n != len(fds) {
		t.Errorf("%d handles, want %d", n, len(fds))
	}
	for _, fd := range fds {
		if _, err := c.FStat(fd); err != nil {
			t.Errorf("fstat(%d): %v", fd, err)
		}
		if err := c.Close(fd); err != nil {
			t.Errorf("close(%d): %v", fd, err)
		}
	}
	if n := o.OpenFDs(); n != 0 {
		t.Errorf("%d handles left", n)
	}

	var sparse table
	const high = 40*chunkSize + 3
	sparse.install(high, "x", false, nil)
	if _, err := sparse.acquire(3); !errors.Is(err, posix.ErrBadFD) {
		t.Errorf("a slot in a chunk never allocated: %v", err)
	}
	sparse.each(func(fd int) {
		if fd != high {
			t.Errorf("each visited %d", fd)
		}
	})
	if h, err := sparse.acquire(high); err != nil || h.name != "x" {
		t.Errorf("acquire(%d): %v", high, err)
	}
}

// leakHandles opens descriptors on a fresh FS and drops it.
//
//go:noinline
func leakHandles(t *testing.T, root string) {
	o, err := New(root, clock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	c := posix.NewClient(o)
	for i := 0; i < 5; i++ {
		if _, err := c.Creat(fmt.Sprintf("/leak%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Opendir("/"); err != nil {
		t.Fatal(err)
	}
	if o.OpenFDs() != 6 {
		t.Fatalf("%d handles, want 6", o.OpenFDs())
	}
}

// TestDroppedFSReleasesDescriptors: an FS nobody can reach any more
// gives back its root descriptor and every handle still open, which is
// what *os.File finalizers used to do one file at a time.
func TestDroppedFSReleasesDescriptors(t *testing.T) {
	root := t.TempDir()
	collectDropped()
	before := procFDs(t)
	leakHandles(t, root)
	if procFDs(t) != before+7 {
		t.Fatalf("%d descriptors open, want %d: the leak did not happen", procFDs(t), before+7)
	}
	collectDropped()
	if after := procFDs(t); after != before {
		t.Errorf("%d descriptors open after the FS was collected, %d before", after, before)
	}
}
