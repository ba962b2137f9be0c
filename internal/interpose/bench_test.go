package interpose

import (
	"fmt"
	"testing"

	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/mount"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// benchShim is a shim over a backend that does nothing, with a stage
// whose only rule is unlimited: what is left is the shim's own work plus
// the stage's cheapest admit path.
func benchShim() *Shim {
	clk := clock.NewReal()
	nop := posix.FileSystemFunc(func(*posix.Request, *posix.Reply) error { return nil })
	stg := stage.New(stage.Info{StageID: "bench", JobID: "job1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	return New(nop, stg, clk)
}

// shimApply issues each call on fresh pooled scratch, the way
// posix.Client does: a request reused across iterations would hide
// whatever the shim does once per request.
func shimApply(b *testing.B, s *Shim, next func() bool) {
	for next() {
		req, rep := posix.GetRequest(), posix.GetReply()
		req.Op, req.Path, req.JobID = posix.OpGetAttr, "/pfs/job1/f", "job1"
		err := s.Apply(req, rep)
		posix.PutRequest(req)
		posix.PutReply(rep)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShimApplySerial and BenchmarkShimApplyParallel price the
// interception counters: per-stripe cells, so GOMAXPROCS callers pay no
// more per call than one.
func BenchmarkShimApplySerial(b *testing.B) {
	s := benchShim()
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	shimApply(b, s, func() bool { i++; return i <= b.N })
}

func BenchmarkShimApplyParallel(b *testing.B) {
	s := benchShim()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) { shimApply(b, s, pb.Next) })
}

// benchFiles is the namespace the data-plane pair stats round-robin.
func benchFiles(b *testing.B, fs posix.FileSystem) []string {
	c := posix.NewClient(fs)
	if err := c.Mkdir("/d", 0o755); err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 256)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%06x", i)
		fd, err := c.Creat(paths[i], 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			b.Fatal(err)
		}
	}
	return paths
}

func getattrLoop(b *testing.B, c *posix.Client, paths []string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetAttr(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPlaneShapedGetattr is one GetAttr through the whole data
// plane as the controller configures it — typed client, shim, a stage
// whose managed rule has a finite rate that never binds, a router with
// one controlled "/" mount, in-memory localfs — and
// BenchmarkDataPlaneBareGetattr is the same call on the bare localfs.
// Their same-run quotient is what interposition costs a request that
// does not wait (`make bench-diff` gates it).
func BenchmarkDataPlaneShapedGetattr(b *testing.B) {
	clk := clock.NewReal()
	backend := localfs.New(clk)
	paths := benchFiles(b, backend)
	router, err := mount.NewRouter(mount.Mount{Prefix: "/", FS: backend, Controlled: true, Name: "pfs:/"})
	if err != nil {
		b.Fatal(err)
	}
	stg := stage.New(stage.Info{StageID: "bench", JobID: "job1", User: "bench"}, clk)
	stg.ApplyRule(policy.Rule{ID: "managed", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr},
		JobID:   "job1",
	}, Rate: 1e9})
	c := posix.NewClient(New(router, stg, clk)).WithJob("job1", "bench", 1)
	getattrLoop(b, c, paths)
}

func BenchmarkDataPlaneBareGetattr(b *testing.B) {
	backend := localfs.New(clock.NewReal())
	paths := benchFiles(b, backend)
	getattrLoop(b, posix.NewClient(backend).WithJob("job1", "bench", 1), paths)
}
