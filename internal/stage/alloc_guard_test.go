package stage

import (
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// TestEnforceZeroAllocs is the runtime half of the //lint:hotpath
// contract on Enforce: hotpathcheck proves statically that the admit
// path cannot allocate, and this guard proves it does not. The stage
// runs on a simulated clock pinned at one instant, so no counter window
// ever rolls and the measurement is deterministic.
func TestEnforceZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	s := New(Info{StageID: "alloc", JobID: "job1"}, clk, WithMode(Enforce))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

	// Warm up: first call touches any lazily initialized state.
	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Enforce (unlimited rule) allocates %.3f allocs/op, want 0 — the //lint:hotpath contract is broken at runtime", avg)
	}
}

// TestEnforceShapedZeroAllocs guards the token-in-hand branch: a finite
// limit that is not binding (the controller's managed rule), admitted
// through TakeAt and the zero-wait record.
func TestEnforceShapedZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	s := New(Info{StageID: "alloc", JobID: "job1"}, clk, WithMode(Enforce))
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Enforce (finite limit, token in hand) allocates %.3f allocs/op, want 0", avg)
	}
}

// TestEnforcePassthroughZeroAllocs guards the unmatched/passthrough
// branch of the same hot path.
func TestEnforcePassthroughZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	s := New(Info{StageID: "alloc", JobID: "job1"}, clk, WithMode(Passthrough))
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Enforce (passthrough) allocates %.3f allocs/op, want 0", avg)
	}
}
