package pfs

import (
	"fmt"
	"math/rand"
	"path"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
)

// A seeded differential and conservation test. One generated sequence of
// namespace and data operations runs, request for request, against a PFS
// whose MDS and OSTs never make a caller wait and against a bare localfs:
// the PFS is a cost model over that namespace, so every step must return
// the same error and the same reply. After every step the OST objects
// must account exactly for the files the namespace still holds. A failure
// prints its seed; pin it in pinnedSeeds.

var pinnedSeeds = []int64{}

// The generator draws from few enough names that sequences collide:
// rename onto a linked file, O_TRUNC of a file open elsewhere, unlink of a
// name whose inode has another, writes through a descriptor whose file
// is gone.
var (
	diffDirs  = []string{"/d1", "/d2", "/d1/s"}
	diffLeafs = []string{"a", "b", "c", "ln"}
	diffFlags = []int{
		posix.ORdOnly,
		posix.ORdWr,
		posix.OCreate | posix.ORdWr,
		posix.OCreate | posix.OExcl | posix.OWrOnly,
		posix.OWrOnly | posix.OTrunc,
		posix.OCreate | posix.OWrOnly | posix.OTrunc,
		posix.OCreate | posix.OWrOnly | posix.OAppend,
	}
)

type differ struct {
	rng *rand.Rand
	pfs *PFS
	ns  *localfs.FS
	fds []int // descriptors open on both sides (the two number them alike)
}

func (d *differ) path() string {
	p := diffLeafs[d.rng.Intn(len(diffLeafs))]
	switch d.rng.Intn(6) {
	case 0:
		return diffDirs[d.rng.Intn(len(diffDirs))] // a directory where a file is expected
	case 1:
		return "/" + p
	case 2:
		return "/d1/../" + p // the same name, spelled differently
	}
	return path.Join(diffDirs[d.rng.Intn(len(diffDirs))], p)
}

func (d *differ) fd() int {
	if len(d.fds) == 0 || d.rng.Intn(10) == 0 {
		return 99 // never opened
	}
	return d.fds[d.rng.Intn(len(d.fds))]
}

// next generates one request.
func (d *differ) next() posix.Request {
	p, q, fd := d.path(), d.path(), d.fd()
	off, size := int64(d.rng.Intn(200)), int64(d.rng.Intn(120))
	payload := make([]byte, size)
	d.rng.Read(payload)
	if len(d.fds) > 8 {
		return posix.Request{Op: posix.OpClose, FD: fd}
	}
	switch d.rng.Intn(30) {
	case 0, 1, 2, 3:
		return posix.Request{Op: posix.OpOpen, Path: p, Flags: diffFlags[d.rng.Intn(len(diffFlags))], Mode: 0o644}
	case 4:
		return posix.Request{Op: posix.OpCreat, Path: p, Flags: posix.OCreate | posix.OWrOnly | posix.OTrunc, Mode: 0o600}
	case 5:
		return posix.Request{Op: posix.OpMknod, Path: p, Mode: 0o640}
	case 6, 7:
		return posix.Request{Op: posix.OpClose, FD: fd}
	case 8, 9:
		return posix.Request{Op: posix.OpWrite, FD: fd, Data: payload}
	case 10, 11:
		return posix.Request{Op: posix.OpPWrite, FD: fd, Data: payload, Offset: off}
	case 12:
		return posix.Request{Op: posix.OpWrite, FD: fd, Size: size} // size-only modelling
	case 13:
		return posix.Request{Op: posix.OpRead, FD: fd, Size: size}
	case 14:
		return posix.Request{Op: posix.OpPRead, FD: fd, Size: size, Offset: off}
	case 15:
		return posix.Request{Op: posix.OpLSeek, FD: fd, Offset: off - 50, Flags: d.rng.Intn(3)}
	case 16:
		return posix.Request{Op: posix.OpFTruncate, FD: fd, Size: off - 20}
	case 17:
		return posix.Request{Op: posix.OpTruncate, Path: p, Size: off}
	case 18, 19:
		return posix.Request{Op: posix.OpRename, Path: p, NewPath: q}
	case 20, 21:
		return posix.Request{Op: posix.OpUnlink, Path: p}
	case 22:
		return posix.Request{Op: posix.OpLink, Path: p, NewPath: q}
	case 23:
		return posix.Request{Op: posix.OpSymlink, Path: q, NewPath: p}
	case 24:
		return posix.Request{Op: posix.OpMkdir, Path: p, Mode: 0o755}
	case 25:
		return posix.Request{Op: posix.OpRmdir, Path: p}
	case 26:
		return posix.Request{Op: []posix.Op{posix.OpStat, posix.OpFStat, posix.OpReadlink}[d.rng.Intn(3)], Path: p, FD: fd}
	case 27:
		return posix.Request{Op: posix.OpOpendir, Path: path.Dir(p)}
	case 28:
		if d.rng.Intn(2) == 0 {
			return posix.Request{Op: posix.OpReaddir, FD: fd}
		}
		return posix.Request{Op: posix.OpReaddir, Path: path.Dir(p)}
	}
	return posix.Request{Op: posix.OpChmod, Path: p, Mode: posix.FileMode(0o600 | d.rng.Intn(0o100))}
}

// answer renders what one side said: the error, or every reply field but
// Stat (capacity is the one thing the two report differently by design).
func answer(rep *posix.Reply, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("fd=%d n=%d info=%+v entries=%v data=%x names=%v", rep.FD, rep.N, rep.Info, rep.Entries, rep.Data, rep.Names)
}

// step applies one request to both sides and returns their answers.
func (d *differ) step(req posix.Request) (got, want string) {
	var grep, wrep posix.Reply
	greq, wreq := req, req
	gerr, werr := d.pfs.Apply(&greq, &grep), d.ns.Apply(&wreq, &wrep)
	d.track(&req, &grep, gerr)
	return answer(&grep, gerr), answer(&wrep, werr)
}

// track keeps the open-descriptor list in step with what the PFS said.
func (d *differ) track(req *posix.Request, rep *posix.Reply, err error) {
	if err != nil {
		return
	}
	switch req.Op {
	case posix.OpOpen, posix.OpCreat, posix.OpOpendir:
		d.fds = append(d.fds, rep.FD)
	case posix.OpClose:
		for i, fd := range d.fds {
			if fd == req.FD {
				d.fds = append(d.fds[:i], d.fds[i+1:]...)
				break
			}
		}
	}
}

// files lists every non-directory name below dir on the PFS.
func files(t *testing.T, c *posix.Client, dir string) []string {
	t.Helper()
	entries, err := c.Readdir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if p := path.Join(dir, e.Name); e.IsDir {
			out = append(out, files(t, c, p)...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// conserved checks that the OSTs hold exactly the objects of the files the
// namespace still names, and returns the bytes they hold.
func conserved(t *testing.T, p *PFS) int64 {
	t.Helper()
	c := posix.NewClient(p)
	live := map[uint64]bool{}
	for _, f := range files(t, c, "/") {
		info, err := c.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		live[info.Inode] = true
		if _, err := c.Readlink(f); err == nil {
			continue // a symlink needs no layout until something opens it
		}
		layout, err := p.LayoutOf(f)
		if err != nil || len(layout) == 0 {
			t.Fatalf("LayoutOf(%s) = %v, %v; want a layout", f, layout, err)
		}
		seen := map[int]bool{}
		for _, o := range layout {
			if o < 0 || o >= len(p.osts) || seen[o] {
				t.Fatalf("LayoutOf(%s) = %v: OST %d out of range or repeated", f, layout, o)
			}
			seen[o] = true
		}
		// No object outlives a truncation: each ends within its stripe's
		// share of the file, derived here from the extent mapping.
		share := make([]int64, len(layout))
		for _, seg := range p.stripeExtent(layout, 0, info.Size) {
			share[seg.stripe] = max(share[seg.stripe], seg.objOffset+seg.length)
		}
		for stripe, o := range layout {
			if got := p.osts[o].objects[objectKey{info.Inode, stripe}]; got > share[stripe] {
				t.Fatalf("%s is %d bytes, yet stripe %d's object holds %d (its share is %d)", f, info.Size, stripe, got, share[stripe])
			}
		}
	}
	for inode := range p.layouts {
		if !live[inode] {
			t.Fatalf("inode %d keeps a layout, but no name reaches it", inode)
		}
	}
	var used int64
	for i, o := range p.osts {
		var held int64
		for key, length := range o.objects {
			if !live[key.inode] {
				t.Fatalf("OST %d holds %d bytes of inode %d, which no name reaches", i, length, key.inode)
			}
			if layout := p.layouts[key.inode]; key.stripe >= len(layout) || layout[key.stripe] != i {
				t.Fatalf("OST %d holds stripe %d of inode %d, whose layout is %v", i, key.stripe, key.inode, layout)
			}
			held += length
		}
		if got := o.usedBytes.Load(); got != held {
			t.Fatalf("OST %d accounts %d bytes used, its objects hold %d", i, got, held)
		}
		used += held
	}
	st, err := c.StatFS("/")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.TotalBytes - st.FreeBytes; got != used {
		t.Fatalf("statfs reports %d bytes used, the OSTs hold %d", got, used)
	}
	return used
}

// unlinkAll removes every file; every object must go with its file's last
// name, whether or not a descriptor still holds the inode.
func unlinkAll(t *testing.T, p *PFS) {
	t.Helper()
	c := posix.NewClient(p)
	for _, f := range files(t, c, "/") {
		if err := c.Unlink(f); err != nil {
			t.Fatal(err)
		}
	}
	if used := conserved(t, p); used != 0 || len(p.layouts) != 0 {
		t.Fatalf("every file unlinked, yet %d bytes and %d layouts remain", used, len(p.layouts))
	}
}

func runDifferential(t *testing.T, seed int64, steps int) {
	defer func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	}()
	// One clock for both, so modification times agree too.
	clk := clock.NewSim(epoch)
	d := &differ{
		rng: rand.New(rand.NewSource(seed)),
		pfs: New(clk, Config{
			MDSCapacity: 1e12, MDSBurst: 1e12, OSTBandwidth: 1e15, OSTBurst: 1e15,
			NumOST: 5, DefaultStripeCount: 3, StripeSize: 16,
		}),
		ns: localfs.New(clk),
	}
	for _, dir := range diffDirs {
		if got, want := d.step(posix.Request{Op: posix.OpMkdir, Path: dir, Mode: 0o755}); got != want {
			t.Fatalf("mkdir %s: %q vs %q", dir, got, want)
		}
	}
	var peak int64
	for i := 0; i < steps; i++ {
		clk.Advance(time.Second)
		req := d.next()
		got, want := d.step(req)
		if got != want {
			t.Fatalf("step %d: %s\n pfs:     %s\n localfs: %s", i, &req, got, want)
		}
		peak = max(peak, conserved(t, d.pfs))
	}
	if peak == 0 {
		t.Fatal("the sequence never placed a byte on an OST")
	}
	unlinkAll(t, d.pfs)
}

func TestDifferentialAgainstLocalFS(t *testing.T) {
	seeds := append([]int64{}, pinnedSeeds...)
	for s := int64(1); s <= 25; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		runDifferential(t, seed, 400)
	}
}

// The same sequences from several goroutines at once, on one PFS: the
// model's mutex orders every object-creating and object-destroying op, so
// whatever interleaving ran, nothing may be left on an OST once the names
// are gone. (Run under -race by `make race`: the model lock is taken
// around calls that take the namespace's, and transfers wait outside both.)
func TestConcurrentOpsLeakNoObjects(t *testing.T) {
	p := New(clock.NewReal(), Config{
		MDSCapacity: 1e12, MDSBurst: 1e12, OSTBandwidth: 1e15, OSTBurst: 1e15,
		NumOST: 5, DefaultStripeCount: 3, StripeSize: 16,
	})
	c := posix.NewClient(p)
	for _, dir := range diffDirs {
		if err := c.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &differ{rng: rand.New(rand.NewSource(g)), pfs: p}
			for i := 0; i < 500; i++ {
				req, rep := d.next(), posix.Reply{}
				d.track(&req, &rep, p.Apply(&req, &rep))
			}
		}()
	}
	wg.Wait()
	unlinkAll(t, p)
}
