package interpose

import (
	"testing"

	"padll/internal/clock"
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

func shimApply(b *testing.B, s *Shim, next func() bool) {
	req, rep := posix.GetRequest(), posix.GetReply()
	defer posix.PutRequest(req)
	defer posix.PutReply(rep)
	req.Op, req.Path, req.JobID = posix.OpGetAttr, "/pfs/job1/f", "job1"
	for next() {
		if err := s.Apply(req, rep); err != nil {
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
