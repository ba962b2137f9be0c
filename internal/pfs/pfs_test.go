package pfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// fastConfig gives effectively unbounded MDS/OST capacity so functional
// tests are not throttled.
func fastConfig() Config {
	return Config{
		MDSCapacity:  1e12,
		MDSBurst:     1e12,
		OSTBandwidth: 1e15,
		OSTBurst:     1e15,
	}
}

func newPFS() (*PFS, *posix.Client) {
	p := New(clock.NewReal(), fastConfig())
	return p, posix.NewClient(p)
}

func TestDefaultsMatchPFSA(t *testing.T) {
	cfg := New(clock.NewReal(), Config{}).Config()
	if cfg.NumMDS != 2 || cfg.NumMDT != 6 || cfg.NumOST != 36 {
		t.Errorf("topology = %d MDS / %d MDT / %d OST, want 2/6/36 (PFS_A)", cfg.NumMDS, cfg.NumMDT, cfg.NumOST)
	}
}

func TestCreateWriteReadStriped(t *testing.T) {
	_, c := newPFS()
	fd, err := c.Open("/f", posix.OCreate|posix.ORdWr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<18) // 4 MiB spans stripes
	if _, err := c.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LSeek(fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(fd, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("striped round-trip corrupted data")
	}
}

func TestStripeLayoutAssigned(t *testing.T) {
	p, c := newPFS()
	fd, err := c.Creat("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	layout, err := p.LayoutOf("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(layout) != p.Config().DefaultStripeCount {
		t.Errorf("stripe count = %d, want %d", len(layout), p.Config().DefaultStripeCount)
	}
	seen := map[int]bool{}
	for _, o := range layout {
		if o < 0 || o >= p.Config().NumOST {
			t.Errorf("layout references OST %d out of range", o)
		}
		if seen[o] {
			t.Errorf("layout repeats OST %d", o)
		}
		seen[o] = true
	}
}

func TestCapacityBalancedOSTSelection(t *testing.T) {
	p, c := newPFS()
	// Write a large file, then create a second; its layout should avoid
	// the most-loaded OSTs.
	fd, _ := c.Creat("/big", 0o644)
	if _, err := c.Write(fd, make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	big, _ := p.LayoutOf("/big")
	fd2, _ := c.Creat("/small", 0o644)
	defer c.Close(fd2)
	small, _ := p.LayoutOf("/small")
	for _, b := range big {
		for _, s := range small {
			if b == s {
				t.Errorf("second file reused loaded OST %d; selection not capacity-balanced", b)
			}
		}
	}
}

func TestStripeExtentMapping(t *testing.T) {
	p := New(clock.NewReal(), Config{StripeSize: 4, DefaultStripeCount: 2})
	layout := []int{0, 1, 2}
	segs := p.stripeExtent(layout, 0, 12)
	// width=12: offsets 0-3 -> stripe0, 4-7 -> stripe1, 8-11 -> stripe2.
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3: %+v", len(segs), segs)
	}
	for i, s := range segs {
		if s.stripe != i || s.objOffset != 0 || s.length != 4 {
			t.Errorf("seg %d = %+v", i, s)
		}
	}
	// Second stripe row: offset 12 maps to stripe 0, object offset 4.
	segs = p.stripeExtent(layout, 12, 4)
	if len(segs) != 1 || segs[0].stripe != 0 || segs[0].objOffset != 4 {
		t.Errorf("row-2 seg = %+v", segs)
	}
	// Unaligned extent crossing a unit boundary.
	segs = p.stripeExtent(layout, 2, 4)
	if len(segs) != 2 || segs[0].length != 2 || segs[1].length != 2 || segs[1].stripe != 1 {
		t.Errorf("unaligned segs = %+v", segs)
	}
}

func TestStripeExtentPropertyCoversExactly(t *testing.T) {
	p := New(clock.NewReal(), Config{StripeSize: 7})
	f := func(offRaw, sizeRaw uint16, nStripes uint8) bool {
		layout := make([]int, int(nStripes%6)+1)
		offset := int64(offRaw % 5000)
		size := int64(sizeRaw%5000) + 1
		segs := p.stripeExtent(layout, offset, size)
		var total int64
		for _, s := range segs {
			if s.length <= 0 || s.stripe < 0 || s.stripe >= len(layout) || s.objOffset < 0 {
				return false
			}
			total += s.length
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSparseReadReturnsZeros(t *testing.T) {
	_, c := newPFS()
	fd, _ := c.Open("/sparse", posix.OCreate|posix.ORdWr, 0o644)
	if _, err := c.PWrite(fd, []byte("end"), 10000); err != nil {
		t.Fatal(err)
	}
	got, err := c.PRead(fd, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("sparse region = %v, want zeros", got)
	}
}

func TestMetadataOpsPayTheMDS(t *testing.T) {
	p, c := newPFS()
	before := p.Stats().MetadataOps
	fd, _ := c.Creat("/f", 0o644)
	c.Close(fd)
	_, _ = c.GetAttr("/f")
	_ = c.Rename("/f", "/g")
	after := p.Stats()
	if got := after.MetadataOps - before; got != 4 {
		t.Errorf("MDS served %d ops, want 4 (creat, close, getattr, rename)", got)
	}
	// Weighted units must reflect the cost model: creat(3)+close(2.5)+getattr(1)+rename(5).
	if after.MetadataUnits < 11.4 || after.MetadataUnits > 11.6 {
		t.Errorf("MDS units = %v, want 11.5", after.MetadataUnits)
	}
}

func TestDataOpsBypassTheMDS(t *testing.T) {
	p, c := newPFS()
	fd, _ := c.Creat("/f", 0o644)
	before := p.Stats().MetadataOps
	for i := 0; i < 10; i++ {
		if _, err := c.Write(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().MetadataOps - before; got != 0 {
		t.Errorf("writes consumed %d MDS ops, want 0", got)
	}
}

func TestMDTShardingSpreadsOps(t *testing.T) {
	p, c := newPFS()
	for i := 0; i < 200; i++ {
		fd, err := c.Creat(fmt.Sprintf("/dir%d-file%d", i%17, i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		c.Close(fd)
	}
	st := p.Stats()
	nonEmpty := 0
	for _, n := range st.PerMDTOps {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Errorf("only %d of %d MDTs saw operations; sharding is skewed", nonEmpty, len(st.PerMDTOps))
	}
}

func TestMDSCapacityThrottlesMetadata(t *testing.T) {
	clk := clock.NewSim(epoch)
	p := New(clk, Config{MDSCapacity: 10, MDSBurst: 5, OSTBandwidth: 1e12, OSTBurst: 1e12})
	c := posix.NewClient(p)
	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 10; i++ {
			// getattr costs 1 unit; burst is 5.
			if _, err := c.GetAttr("/"); err == nil {
				n++
			}
		}
		done <- n
	}()
	// Without advancing: only the 5-unit burst can be served. Drive the
	// clock until the goroutine finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case n := <-done:
			if n != 10 {
				t.Fatalf("served %d getattrs, want 10", n)
			}
			// Serving 10 units with burst 5 at 10/s requires >= 0.5 sim-seconds.
			if elapsed := clk.Now().Sub(epoch); elapsed < 400*time.Millisecond {
				t.Errorf("10 ops finished after %v of sim time; MDS capacity not enforced", elapsed)
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("ops never completed")
			}
			clk.Advance(50 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestMDSOverloadShedding(t *testing.T) {
	clk := clock.NewSim(epoch)
	p := New(clk, Config{MDSCapacity: 1, MDSBurst: 1, MaxQueueDepth: 3, OSTBandwidth: 1e12, OSTBurst: 1e12})
	c := posix.NewClient(p)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetAttr("/")
			errs <- err
		}()
	}
	go func() {
		for i := 0; i < 100; i++ {
			clk.Advance(100 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	var overloaded int
	for err := range errs {
		if err == ErrMDSOverloaded {
			overloaded++
		}
	}
	if overloaded == 0 {
		t.Error("no requests were shed despite a 3-unit queue limit and 32 concurrent getattrs")
	}
	if p.Stats().Rejected != int64(overloaded) {
		t.Errorf("Rejected stat = %d, want %d", p.Stats().Rejected, overloaded)
	}
}

func TestOfferMetadataLoadFluidPath(t *testing.T) {
	clk := clock.NewSim(epoch)
	p := New(clk, Config{MDSCapacity: 100, MDSBurst: 100})
	served := p.OfferMetadataLoad(500, time.Second)
	if served != 200 { // burst 100 + window refill 100
		t.Errorf("served = %v, want 200", served)
	}
	clk.Advance(time.Second)
	served = p.OfferMetadataLoad(500, time.Second)
	if served != 100 {
		t.Errorf("served after refill = %v, want 100", served)
	}
	if got := p.Stats().MetadataUnits; got != 300 {
		t.Errorf("units = %v, want 300", got)
	}
}

func TestNamespaceOperations(t *testing.T) {
	_, c := newPFS()
	if err := c.Mkdir("/proj", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err := c.Creat("/proj/data", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	if err := c.Rename("/proj/data", "/proj/data2"); err != nil {
		t.Fatal(err)
	}
	entries, err := c.Readdir("/proj")
	if err != nil || len(entries) != 1 || entries[0].Name != "data2" {
		t.Fatalf("readdir = %v, %v", entries, err)
	}
	if err := c.Unlink("/proj/data2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/proj"); err != nil {
		t.Fatal(err)
	}
}

func TestXAttrsOnPFS(t *testing.T) {
	c := posix.NewClient(New(clock.NewReal(), fastConfig()))
	fd, _ := c.Creat("/f", 0o644)
	c.Close(fd)
	if err := c.SetXAttr("/f", "user.stripe", []byte("4")); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetXAttr("/f", "user.stripe")
	if err != nil || string(v) != "4" {
		t.Fatalf("getxattr = %q, %v", v, err)
	}
	names, _ := c.ListXAttr("/f")
	if len(names) != 1 {
		t.Errorf("listxattr = %v", names)
	}
	if err := c.RemoveXAttr("/f", "user.stripe"); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkFreesOSTObjects(t *testing.T) {
	_, c := newPFS()
	fd, _ := c.Creat("/f", 0o644)
	if _, err := c.Write(fd, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	st0, _ := c.StatFS("/")
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	st1, _ := c.StatFS("/")
	if st1.FreeBytes != st0.FreeBytes+1<<20 {
		t.Errorf("free bytes after unlink = %d, want %d", st1.FreeBytes, st0.FreeBytes+1<<20)
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	_, c := newPFS()
	fd, _ := c.Open("/f", posix.OCreate|posix.ORdWr, 0o644)
	if _, err := c.Write(fd, bytes.Repeat([]byte("ab"), 2<<20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate("/f", 3); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	if info.Size != 3 {
		t.Errorf("size = %d, want 3", info.Size)
	}
	got, _ := c.PRead(fd, 10, 0)
	if string(got) != "aba" {
		t.Errorf("content after shrink = %q", got)
	}
	if err := c.Truncate("/f", 100); err != nil {
		t.Fatal(err)
	}
	info, _ = c.Stat("/f")
	if info.Size != 100 {
		t.Errorf("size after grow = %d", info.Size)
	}
}

func TestSymlinkOnPFS(t *testing.T) {
	p, c := newPFS()
	fd, _ := c.Creat("/t", 0o644)
	c.Close(fd)
	if _, err := posix.Do(p, &posix.Request{Op: posix.OpSymlink, Path: "/t", NewPath: "/l"}); err != nil {
		t.Fatal(err)
	}
	rep, err := posix.Do(p, &posix.Request{Op: posix.OpReadlink, Path: "/l"})
	if err != nil || string(rep.Data) != "/t" {
		t.Fatalf("readlink = %q, %v", rep.Data, err)
	}
}

func TestConcurrentMetadataClients(t *testing.T) {
	p, c := newPFS()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pth := fmt.Sprintf("/g%d-%d", g, i)
				fd, err := c.Creat(pth, 0o644)
				if err != nil {
					t.Errorf("creat: %v", err)
					return
				}
				if err := c.Close(fd); err != nil {
					t.Errorf("close: %v", err)
					return
				}
				if _, err := c.GetAttr(pth); err != nil {
					t.Errorf("getattr: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := p.Stats().MetadataOps; got != 8*50*3 {
		t.Errorf("MDS ops = %d, want %d", got, 8*50*3)
	}
}

func TestMDSFailoverPromotesStandby(t *testing.T) {
	p, c := newPFS()
	fd, _ := c.Creat("/before", 0o644)
	c.Close(fd)
	opsBefore := p.Stats().MetadataOps

	idx, err := p.FailoverMDS()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("active MDS = %d, want 1 (promoted standby)", idx)
	}
	// The namespace survives (persisted on MDTs) and the standby serves.
	if _, err := c.Stat("/before"); err != nil {
		t.Fatalf("namespace lost across failover: %v", err)
	}
	fd, err = c.Creat("/after", 0o644)
	if err != nil {
		t.Fatalf("creat after failover: %v", err)
	}
	c.Close(fd)
	st := p.Stats()
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	if st.MetadataOps <= opsBefore {
		t.Error("counters lost pre-failover work")
	}
}

func TestMDSFailoverReleasesInFlightRequests(t *testing.T) {
	clk := clock.NewSim(epoch)
	p := New(clk, Config{MDSCapacity: 1, MDSBurst: 1, OSTBandwidth: 1e12, OSTBurst: 1e12})
	c := posix.NewClient(p)
	// Saturate the active MDS so the next request blocks.
	if _, err := c.GetAttr("/"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := c.GetAttr("/"); done <- err }()
	clk.BlockUntil(1) // the request is parked on the MDS
	if _, err := p.FailoverMDS(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrMDSFailed {
			t.Errorf("in-flight request err = %v, want ErrMDSFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request wedged across failover")
	}
	// Retry succeeds against the standby.
	if _, err := c.GetAttr("/"); err != nil {
		t.Errorf("retry after failover: %v", err)
	}
}

func TestFailoverWithoutStandbyFails(t *testing.T) {
	p := New(clock.NewReal(), Config{NumMDS: 1, MDSCapacity: 1e12, MDSBurst: 1e12})
	if _, err := p.FailoverMDS(); err == nil {
		t.Error("failover succeeded with a single MDS")
	}
}

// Oracle property: random striped pwrite/pread sequences match a plain
// byte-slice model exactly (validates the stripe-extent mapping and OST
// object store end to end).
func TestStripedReadWriteOracleProperty(t *testing.T) {
	f := func(ops []uint32, stripeSeed uint8) bool {
		p := New(clock.NewReal(), Config{
			MDSCapacity: 1e12, MDSBurst: 1e12,
			OSTBandwidth: 1e15, OSTBurst: 1e15,
			StripeSize:         int64(stripeSeed%7)*64 + 64, // 64..448B units
			DefaultStripeCount: int(stripeSeed%5) + 1,
		})
		c := posix.NewClient(p)
		fd, err := c.Open("/oracle", posix.OCreate|posix.ORdWr, 0o644)
		if err != nil {
			return false
		}
		var model []byte
		for _, raw := range ops {
			off := int64(raw % 8192)
			size := int64(raw>>13%511) + 1
			if raw&1 == 0 {
				payload := bytes.Repeat([]byte{byte(raw >> 3)}, int(size))
				if _, err := c.PWrite(fd, payload, off); err != nil {
					return false
				}
				if end := off + size; end > int64(len(model)) {
					model = append(model, make([]byte, end-int64(len(model)))...)
				}
				copy(model[off:off+size], payload)
			} else {
				got, err := c.PRead(fd, size, off)
				if err != nil {
					return false
				}
				var want []byte
				if off < int64(len(model)) {
					end := off + size
					if end > int64(len(model)) {
						end = int64(len(model))
					}
					want = model[off:end]
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		info, err := c.Stat("/oracle")
		return err == nil && info.Size == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Namespace defects the PFS's own tree had and the shared one does not.
func TestNamespaceRegressions(t *testing.T) {
	payload := bytes.Repeat([]byte("lustre"), 500)
	write := func(t *testing.T, c *posix.Client, path string) {
		t.Helper()
		fd, err := c.Creat(path, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(fd, payload); err != nil {
			t.Fatal(err)
		}
		c.Close(fd)
	}
	intact := func(t *testing.T, c *posix.Client, path string) {
		t.Helper()
		fd, err := c.Open(path, posix.ORdOnly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close(fd)
		if got, err := c.Read(fd, 1<<20); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s holds %d bytes (%v), want the %d written", path, len(got), err, len(payload))
		}
	}
	used := func(c *posix.Client) int64 {
		st, _ := c.StatFS("/")
		return st.TotalBytes - st.FreeBytes
	}
	cases := []struct {
		name string
		run  func(t *testing.T, c *posix.Client)
	}{
		{"readdir on a descriptor streams the directory that was opened", func(t *testing.T, c *posix.Client) {
			if err := c.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			write(t, c, "/outside")
			write(t, c, "/d/x")
			write(t, c, "/d/y")
			fd, err := c.Opendir("/d")
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for len(names) < 10 { // a stream that never ends is a failure, not a hang
				e, ok, err := c.ReaddirFD(fd)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				names = append(names, e.Name)
			}
			if fmt.Sprint(names) != "[x y]" {
				t.Errorf("streamed %v, want [x y]", names)
			}
		}},
		{"opendir on a regular file is ErrNotDir", func(t *testing.T, c *posix.Client) {
			write(t, c, "/f")
			if _, err := c.Opendir("/f"); err != posix.ErrNotDir {
				t.Errorf("err = %v, want ErrNotDir", err)
			}
		}},
		{"rename onto itself keeps the file", func(t *testing.T, c *posix.Client) {
			write(t, c, "/f")
			if err := c.Rename("/f", "/f"); err != nil {
				t.Fatal(err)
			}
			intact(t, c, "/f")
			if got := used(c); got != int64(len(payload)) {
				t.Errorf("OSTs hold %d bytes, want %d", got, len(payload))
			}
		}},
		{"rename over one of two links spares the other", func(t *testing.T, c *posix.Client) {
			write(t, c, "/f")
			if err := c.Link("/f", "/g"); err != nil {
				t.Fatal(err)
			}
			fd, _ := c.Creat("/new", 0o644)
			c.Close(fd)
			if err := c.Rename("/new", "/f"); err != nil {
				t.Fatal(err)
			}
			intact(t, c, "/g")
			if got := used(c); got != int64(len(payload)) {
				t.Errorf("OSTs hold %d bytes, want %d", got, len(payload))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newPFS()
			tc.run(t, c)
		})
	}
}
