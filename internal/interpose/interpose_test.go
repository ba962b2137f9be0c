package interpose

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/metrics"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// rig builds app -> shim -> router{/pfs controlled, / local} with a stage.
func rig(t *testing.T, clk clock.Clock, mode stage.Mode) (*Shim, *posix.Client, *stage.Stage) {
	t.Helper()
	pfsBackend := localfs.New(clk)
	local := localfs.New(clk)
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: pfsBackend, Controlled: true, Name: "pfs"},
		mount.Mount{Prefix: "/", FS: local, Name: "local"},
	)
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk, stage.WithMode(mode))
	shim := New(router, stg, clk)
	return shim, posix.NewClient(shim).WithJob("j1", "alice", 42), stg
}

func TestTransparentForwarding(t *testing.T) {
	_, c, _ := rig(t, clock.NewSim(epoch), stage.Enforce)
	fd, err := c.Creat("/pfs/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/pfs/f")
	if err != nil || info.Size != 2 {
		t.Fatalf("stat through shim = %+v, %v", info, err)
	}
}

func TestOnlyControlledMountsAreThrottled(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Enforce)
	// Starve the PFS rule completely: burst 1, glacial refill.
	stg.ApplyRule(policy.Rule{ID: "all-pfs", Rate: 0.000001, Burst: 1})

	// Local-FS operations must not block even with the starved rule.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			fd, err := c.Creat("/tmp-f", 0o644)
			if err != nil {
				done <- err
				return
			}
			if err := c.Close(fd); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("local-FS ops were throttled")
	}
	st := shim.Stats()
	if st.Bypassed != 200 {
		t.Errorf("bypassed = %d, want 200", st.Bypassed)
	}
	if st.Controlled != 0 {
		t.Errorf("controlled = %d, want 0", st.Controlled)
	}
}

func TestControlledRequestsAreThrottled(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Enforce)
	stg.ApplyRule(policy.Rule{ID: "open-cap", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen, posix.OpCreat}}, Rate: 10, Burst: 2})

	results := make(chan error, 6)
	go func() {
		for i := 0; i < 6; i++ {
			_, err := c.Creat("/pfs/same", 0o644)
			results <- err
		}
	}()
	admitted := 0
	deadline := time.Now().Add(5 * time.Second)
	for admitted < 6 {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
			admitted++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 6 admitted", admitted)
			}
			clk.Advance(50 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	// 6 creats with burst 2 at 10/s require >= ~0.4 sim-seconds.
	if got := clk.Now().Sub(epoch); got < 300*time.Millisecond {
		t.Errorf("6 ops took %v sim time; throttling absent", got)
	}
	if shim.Stats().Controlled != 6 {
		t.Errorf("controlled = %d, want 6", shim.Stats().Controlled)
	}
}

func TestPassthroughModeNoThrottle(t *testing.T) {
	clk := clock.NewSim(epoch)
	shim, c, stg := rig(t, clk, stage.Passthrough)
	stg.ApplyRule(policy.Rule{ID: "starved", Rate: 0.000001, Burst: 1})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 500; i++ {
			if _, err := c.GetAttr("/pfs"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("passthrough mode blocked")
	}
	if got := shim.Stats().Controlled; got != 500 {
		t.Errorf("controlled = %d, want 500", got)
	}
}

func TestPerOpCounters(t *testing.T) {
	shim, c, _ := rig(t, clock.NewSim(epoch), stage.Enforce)
	fd, _ := c.Creat("/pfs/f", 0o644)
	c.Close(fd)
	c.GetAttr("/pfs/f")
	c.GetAttr("/pfs/f")
	st := shim.Stats()
	if st.PerOp[posix.OpCreat] != 1 || st.PerOp[posix.OpClose] != 1 || st.PerOp[posix.OpGetAttr] != 2 {
		t.Errorf("per-op = %v", st.PerOp)
	}
	if st.Intercepted != 4 {
		t.Errorf("intercepted = %d, want 4", st.Intercepted)
	}
}

func TestNonRouterBackendControlsEverything(t *testing.T) {
	clk := clock.NewSim(epoch)
	fs := localfs.New(clk)
	stg := stage.New(stage.Info{StageID: "s"}, clk)
	shim := New(fs, stg, clk)
	c := posix.NewClient(shim)
	fd, _ := c.Creat("/f", 0o644)
	c.Close(fd)
	if got := shim.Stats().Controlled; got != 2 {
		t.Errorf("controlled = %d, want 2", got)
	}
}

// countingClock counts the reads of a simulated clock.
type countingClock struct {
	*clock.Sim
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Sim.Now()
}

// TestClockReadOnlyForSampledCalls pins what the shim samples: the
// end-to-end latency of one controlled call in sampleEvery, timed with
// two clock reads of its own, and no clock read for any other call —
// controlled, bypassed or unroutable.
func TestClockReadOnlyForSampledCalls(t *testing.T) {
	const step = 250 * time.Microsecond
	sim := clock.NewSim(epoch)
	clk := &countingClock{Sim: sim}
	// Each backend call takes exactly step of simulated time.
	slow := posix.FileSystemFunc(func(*posix.Request, *posix.Reply) error {
		sim.Advance(step)
		return nil
	})
	router, err := mount.NewRouter(
		mount.Mount{Prefix: "/pfs", FS: slow, Controlled: true},
		mount.Mount{Prefix: "/tmp", FS: slow},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The stage reads its own clock, so clk counts the shim's reads alone.
	shim := New(router, stage.New(stage.Info{StageID: "s"}, sim), clk)
	c := posix.NewClient(shim)

	for i := 0; i < 100; i++ {
		if _, err := c.GetAttr("/tmp/f"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetAttr("/nowhere/f"); err != posix.ErrNotExist {
		t.Fatalf("unrouted getattr = %v, want ErrNotExist", err)
	}
	if err := c.Close(99); err != posix.ErrBadFD {
		t.Fatalf("close of an unknown fd = %v, want ErrBadFD", err)
	}
	if clk.reads != 0 {
		t.Errorf("%d clock reads for calls that bypass the stage, want 0", clk.reads)
	}

	// Controlled calls sample off their stripe's count. Which stripe a
	// goroutine lands on follows its stack, which may still grow over the
	// first calls, so those are a warm-up; after it every call lands on
	// one cell, and any run of 2×sampleEvery consecutive counts holds
	// exactly two multiples of sampleEvery.
	const warmUp, calls = 100, 2 * sampleEvery
	getattrs := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.GetAttr("/pfs/f"); err != nil {
				t.Fatal(err)
			}
		}
	}
	getattrs(warmUp)
	samples0, reads0 := shim.latency.Count(), clk.reads
	getattrs(calls)
	if got := shim.latency.Count() - samples0; got != calls/sampleEvery {
		t.Errorf("%d latency samples of %d controlled calls, want %d", got, calls, calls/sampleEvery)
	}
	if got := clk.reads - reads0; got != 2*calls/sampleEvery {
		t.Errorf("%d clock reads, want two per sample (%d)", got, 2*calls/sampleEvery)
	}
	st := shim.Stats()
	if st.MeanLatencySeconds != step.Seconds() {
		t.Errorf("mean latency = %gs, want the backend's %gs", st.MeanLatencySeconds, step.Seconds())
	}
	if st.Controlled != warmUp+calls || st.Bypassed != 102 || st.Intercepted != warmUp+calls+102 {
		t.Errorf("controlled/bypassed/intercepted = %d/%d/%d, want %d/102/%d", st.Controlled, st.Bypassed, st.Intercepted, warmUp+calls, warmUp+calls+102)
	}
}

// TestStatsOutsideTheOpTable: an operation the table does not know is
// still intercepted and counted by disposition; only the per-operation
// view, which has no name for it, leaves it out.
func TestStatsOutsideTheOpTable(t *testing.T) {
	clk := clock.NewSim(epoch)
	nop := posix.FileSystemFunc(func(*posix.Request, *posix.Reply) error { return nil })
	shim := New(nop, stage.New(stage.Info{StageID: "s"}, clk), clk)
	if err := shim.Apply(&posix.Request{Op: posix.Op(posix.NumOps + 7), Path: "/f"}, new(posix.Reply)); err != nil {
		t.Fatal(err)
	}
	if err := shim.Apply(&posix.Request{Op: posix.OpStat, Path: "/f"}, new(posix.Reply)); err != nil {
		t.Fatal(err)
	}
	st := shim.Stats()
	if st.Intercepted != 2 || st.Controlled != 2 || len(st.PerOp) != 1 || st.PerOp[posix.OpStat] != 1 {
		t.Errorf("stats = %+v, want 2 intercepted and controlled, 1 stat", st)
	}
}

func TestConcurrentInterposition(t *testing.T) {
	clk := clock.NewReal()
	shim, c, stg := func() (*Shim, *posix.Client, *stage.Stage) {
		backend := localfs.New(clk)
		stg := stage.New(stage.Info{StageID: "cc", JobID: "j"}, clk)
		shim := New(backend, stg, clk)
		return shim, posix.NewClient(shim).WithJob("j", "u", 1), stg
	}()
	stg.ApplyRule(policy.Rule{ID: "meta", Rate: 1e9, Burst: 1e9})
	fd, err := c.Creat("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)

	const goroutines, perG = 8, 500
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < perG; i++ {
				if _, err := c.GetAttr("/f"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := shim.Stats()
	want := int64(goroutines*perG + 2)
	if st.Intercepted != want {
		t.Errorf("intercepted = %d, want %d", st.Intercepted, want)
	}
	qs := stg.Collect().Queues[0]
	if qs.Total != want {
		t.Errorf("queue total = %d, want %d", qs.Total, want)
	}
}

// TestStripedCountersConserveCalls drives controlled, bypassed and
// policed-away calls from several goroutines at once (run under -race):
// the per-stripe cells must add up to exactly the calls issued, in
// total, by disposition and per operation.
func TestStripedCountersConserveCalls(t *testing.T) {
	shim, c, stg := rig(t, clock.NewReal(), stage.Enforce)
	// Police opens on the PFS with a bucket that runs dry at once, so
	// most of them are refused with ErrRateLimited.
	stg.ApplyRule(policy.Rule{ID: "police", Match: policy.Matcher{
		Ops: []posix.Op{posix.OpOpen},
	}, Rate: 1e-6, Burst: 3, Action: policy.ActionDrop})
	for _, p := range []string{"/pfs/f", "/local-f"} {
		fd, err := c.Creat(p, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	const setup = 4 // 2 × creat+close

	const goroutines, perG = 8, 600
	var wg sync.WaitGroup
	var dropped atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0: // controlled
					if _, err := c.GetAttr("/pfs/f"); err != nil {
						t.Errorf("getattr: %v", err)
						return
					}
				case 1: // bypassed
					if _, err := c.Stat("/local-f"); err != nil {
						t.Errorf("stat: %v", err)
						return
					}
				case 2: // controlled, mostly dropped by the policing rule
					fd, err := c.Open("/pfs/f", posix.ORdOnly, 0)
					if err == stage.ErrRateLimited {
						dropped.Add(1)
						continue
					}
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					// An admitted open is followed by its close: one
					// more controlled call.
					if err := c.Close(fd); err != nil {
						t.Errorf("close: %v", err)
						return
					}
				}
			}
		}()
	}
	// A reader snapshots while the callers run: every snapshot is a sum of
	// cells each read once, so the identities hold in it whatever is in
	// flight.
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			st := shim.Stats()
			var perOp int64
			for _, n := range st.PerOp {
				perOp += n
			}
			if st.Intercepted != st.Controlled+st.Bypassed || perOp != st.Intercepted {
				t.Errorf("mid-run snapshot: intercepted %d, controlled %d + bypassed %d, per-op sum %d", st.Intercepted, st.Controlled, st.Bypassed, perOp)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	const third = goroutines * perG / 3
	opens := int64(third)
	closes := opens - dropped.Load()
	if dropped.Load() == 0 || closes == 0 {
		t.Fatalf("fixture: %d opens dropped, %d admitted; want both", dropped.Load(), closes)
	}
	st := shim.Stats()
	wantCalls := int64(setup+3*third) + closes
	if st.Intercepted != wantCalls || st.Controlled+st.Bypassed != wantCalls {
		t.Errorf("intercepted %d, controlled %d + bypassed %d; want %d calls", st.Intercepted, st.Controlled, st.Bypassed, wantCalls)
	}
	if want := int64(third + 2); st.Bypassed != want { // stats + the local creat/close
		t.Errorf("bypassed = %d, want %d", st.Bypassed, want)
	}
	var perOp int64
	for _, n := range st.PerOp {
		perOp += n
	}
	if perOp != wantCalls {
		t.Errorf("per-op counts sum to %d, want %d", perOp, wantCalls)
	}
	if st.PerOp[posix.OpOpen] != opens || st.PerOp[posix.OpGetAttr] != third || st.PerOp[posix.OpClose] != closes+2 {
		t.Errorf("per-op = %v; want open %d getattr %d close %d", st.PerOp, opens, third, closes+2)
	}
	if got := stg.Collect().Queues[0].Dropped; got != dropped.Load() {
		t.Errorf("stage dropped %d, callers saw %d", got, dropped.Load())
	}
}

// TestLatencySamplingStaysOneIn64 keeps the end-to-end latency sample
// honest with each stripe sampling off its own count: 64,000 controlled
// calls of one operation from four goroutines must leave 1,000 samples,
// short by at most one per stripe (a stripe's trailing partial run of 64).
func TestLatencySamplingStaysOneIn64(t *testing.T) {
	clk := clock.NewReal()
	nop := posix.FileSystemFunc(func(*posix.Request, *posix.Reply) error { return nil })
	shim := New(nop, stage.New(stage.Info{StageID: "s"}, clk), clk)
	const goroutines, perG = 4, 16000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, rep := posix.GetRequest(), posix.GetReply()
			defer posix.PutRequest(req)
			defer posix.PutReply(rep)
			req.Op, req.Path = posix.OpGetAttr, "/f"
			for i := 0; i < perG; i++ {
				if err := shim.Apply(req, rep); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG / 64
	if got := shim.latency.Count(); got > want || got <= want-metrics.Stripes {
		t.Errorf("%d latency samples of %d controlled calls, want %d (less at most one per stripe)", got, goroutines*perG, want)
	}
	if got := shim.Stats().Controlled; got != goroutines*perG {
		t.Errorf("controlled = %d, want %d", got, goroutines*perG)
	}
}

// opCounter counts the calls of one operation that reach the backend.
type opCounter struct {
	posix.FileSystem
	op posix.Op
	n  atomic.Int64
}

func (b *opCounter) Apply(req *posix.Request, rep *posix.Reply) error {
	if req.Op == b.op {
		b.n.Add(1)
	}
	return b.FileSystem.Apply(req, rep)
}

// A descriptor closed while a request on it waits in the stage must fail
// with ErrBadFD at the router, not reach the backend: the backend fd the
// descriptor mapped to when the request was intercepted may by then be
// another caller's file (osfs hands out recycled kernel numbers).
func TestCloseDuringThrottleWaitIsBadFD(t *testing.T) {
	clk := clock.NewSim(epoch)
	backend := &opCounter{FileSystem: localfs.New(clk), op: posix.OpFStat}
	router, err := mount.NewRouter(mount.Mount{Prefix: "/pfs", FS: backend, Controlled: true, Name: "pfs"})
	if err != nil {
		t.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "fstat-cap", Match: policy.Matcher{Ops: []posix.Op{posix.OpFStat}}, Rate: 1, Burst: 1})
	c := posix.NewClient(New(router, stg, clk)).WithJob("j1", "alice", 42)

	fd, err := c.Creat("/pfs/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FStat(fd); err != nil { // takes the burst token
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := c.FStat(fd)
		blocked <- err
	}()
	clk.BlockUntil(1) // the second fstat is parked in the bucket
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	select {
	case err := <-blocked:
		if err != posix.ErrBadFD {
			t.Errorf("fstat on a descriptor closed during its wait = %v, want ErrBadFD", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("throttled fstat never returned")
	}
	if got := backend.n.Load(); got != 1 {
		t.Errorf("backend saw %d fstat calls, want 1: the stale descriptor was forwarded", got)
	}
}
