package stage

import (
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// benchStage builds a stage with the E6 overhead rule set (per-class
// metadata/data rules plus narrower op- and path-scoped rules) so
// classification does the same differentiation work the paper's
// passthrough setup performs.
func benchStage(mode Mode) *Stage {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal(), WithMode(mode))
	s.ApplyRule(policy.Rule{ID: "open", Match: policy.Matcher{
		Ops: []posix.Op{posix.OpOpen, posix.OpOpen64, posix.OpCreat},
	}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr},
	}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "data", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassData},
	}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "scratch", Match: policy.Matcher{
		PathPrefix: "/pfs/scratch",
	}, Rate: policy.Unlimited})
	return s
}

func benchReq() *posix.Request {
	return &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}
}

// BenchmarkStageEnforceSerial measures the single-caller admit path with
// unlimited rules (the passthrough configuration of §IV-A).
func BenchmarkStageEnforceSerial(b *testing.B) {
	enforceSerial(b, benchStage(Enforce), benchReq())
}

// BenchmarkStageEnforceParallel measures the multi-rank admit path: many
// replayer threads pushing through one stage, the contention profile the
// paper's 512-job scale-out produces. Run with -cpu 1,4,8.
func BenchmarkStageEnforceParallel(b *testing.B) {
	enforceParallel(b, benchStage(Enforce), benchReq)
}

// enforceSerial and enforceParallel are the two halves of every admit
// path's benchmark pair: the same stage and request from one caller, and
// from GOMAXPROCS callers at once. A path that writes no shared cache
// line costs no more per call in parallel than serially, on any number
// of cores — the quotient `make bench-diff` gates.
func enforceSerial(b *testing.B, s *Stage, req *posix.Request) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Enforce(req); err != nil {
			b.Fatal(err)
		}
	}
}

func enforceParallel(b *testing.B, s *Stage, mk func() *posix.Request) {
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := mk()
		for pb.Next() {
			if err := s.Enforce(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// passthroughModeStage is Passthrough mode with a finite-rate rule
// installed (count-but-never-throttle, §IV-A setup).
func passthroughModeStage() *Stage {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal(), WithMode(Passthrough))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr},
	}, Rate: 1, Burst: 1})
	return s
}

func BenchmarkStageEnforcePassthroughModeSerial(b *testing.B) {
	enforceSerial(b, passthroughModeStage(), benchReq())
}

func BenchmarkStageEnforcePassthroughMode(b *testing.B) {
	enforceParallel(b, passthroughModeStage(), benchReq)
}

// unmatchedStage carries only a rule scoped to another job, so the
// bench request matches nothing (the not-subject-to-QoS path: one
// passthrough counter bump).
func unmatchedStage() *Stage {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "j2", Match: policy.Matcher{JobID: "job2"}, Rate: policy.Unlimited})
	return s
}

func unmatchedReq() *posix.Request {
	return &posix.Request{Op: posix.OpGetAttr, Path: "/other/f", JobID: "job9"}
}

func BenchmarkStageEnforceUnmatchedSerial(b *testing.B) {
	enforceSerial(b, unmatchedStage(), unmatchedReq())
}

func BenchmarkStageEnforceUnmatched(b *testing.B) {
	enforceParallel(b, unmatchedStage(), unmatchedReq)
}

// shapedStage carries the controller's managed rule — metadata-like
// classes scoped to the job — at a finite rate that never binds: the
// common production case, admitted through TakeAt with the token in
// hand, from the calling stripe's share of the bucket. The bucket's lock
// is taken once per share, so the pair's Parallel/Serial quotient is
// gated like the other admit paths' (make bench-diff).
func shapedStage() *Stage {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	return s
}

func BenchmarkStageEnforceShapedSerial(b *testing.B) {
	enforceSerial(b, shapedStage(), benchReq())
}

func BenchmarkStageEnforceShapedParallel(b *testing.B) {
	enforceParallel(b, shapedStage(), benchReq)
}

// BenchmarkStageEnforceDrop measures the policing path (TryTake per
// request against a bucket sized so admissions mostly succeed).
func BenchmarkStageEnforceDrop(b *testing.B) {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "police", Rate: 1e12, Burst: 1e12, Action: policy.ActionDrop})
	req := benchReq()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.Enforce(req); err != nil && err != ErrRateLimited {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStageOffer measures the fluid-admission path the discrete-tick
// simulator drives (one call per op per job per tick).
func BenchmarkStageOffer(b *testing.B) {
	s := New(Info{StageID: "bench", JobID: "job1"}, clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr},
	}, Rate: 1e9, Burst: 1e9})
	req := benchReq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(req, 100.5, time.Millisecond)
	}
}

// BenchmarkStageCollect measures the statistics snapshot under a live
// rule set (the feedback loop's per-iteration cost).
func BenchmarkStageCollect(b *testing.B) {
	s := benchStage(Enforce)
	req := benchReq()
	for i := 0; i < 1000; i++ {
		if err := s.Enforce(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Collect()
	}
}

// BenchmarkStageSetRate measures the feedback loop's retune: a new rate
// stored in place under a live rule set, with no snapshot rebuild
// behind it. 0 allocs/op is the contract (TestSetRateZeroAllocs).
func BenchmarkStageSetRate(b *testing.B) {
	s := benchStage(Enforce)
	s.ApplyRule(policy.Rule{ID: "managed", Match: policy.Matcher{JobID: "job1"}, Rate: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetRate("managed", float64(1000+(i&1023)))
	}
}
