package stage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/tokenbucket"
)

// TestEnforceZeroAllocs guards the zero-alloc contract of Enforce's
// admit path. The stage runs on a simulated clock pinned at one
// instant, so no counter window ever rolls and the measurement is
// deterministic.
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
		t.Errorf("Enforce (unlimited rule) allocates %.3f allocs/op, want 0", avg)
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

// TestEnforceSweepZeroAllocs guards classification itself: a sweep
// over 2,000 distinct directories, under rules with and without a path
// constraint, allocates nothing per request — no per-key state is
// built on the admit path.
func TestEnforceSweepZeroAllocs(t *testing.T) {
	s := New(Info{StageID: "sweep", JobID: "job1"}, clock.NewSim(time.Unix(0, 0)))
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	s.ApplyRule(policy.Rule{ID: "scratch", Match: policy.Matcher{PathPrefix: "/pfs/d0001"}, Rate: policy.Unlimited})
	paths := make([]string, 2000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/d%04d/f", i)
	}
	req := &posix.Request{Op: posix.OpGetAttr, Path: paths[0], JobID: "job1", User: "u1"}
	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(len(paths), func() {
		req.Path = paths[i%len(paths)]
		i++
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Enforce over %d distinct directories allocates %.3f allocs/op, want 0", len(paths), avg)
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

// TestEnforceDropZeroAllocs guards the policing branch both ways out: a
// request the bucket admits, and one TryTake refuses, which gets the
// ErrRateLimited sentinel itself rather than a wrapped copy.
func TestEnforceDropZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name        string
		rate, burst float64
		want        error
	}{
		{"admitted", 1e9, 1e9, nil},
		{"refused", 1, 1, ErrRateLimited}, // the warm-up call takes the one token
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := clock.NewSim(time.Unix(0, 0))
			s := New(Info{StageID: "alloc", JobID: "job1"}, clk, WithMode(Enforce))
			s.ApplyRule(policy.Rule{ID: "police", Match: managedMatcher(),
				Rate: c.rate, Burst: c.burst, Action: policy.ActionDrop})
			req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

			if err := s.Enforce(req); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(1000, func() {
				if err := s.Enforce(req); !errors.Is(err, c.want) {
					t.Fatalf("Enforce = %v, want %v", err, c.want)
				}
			}); avg != 0 {
				t.Errorf("Enforce (drop action, %s) allocates %.3f allocs/op, want 0", c.name, avg)
			}
		})
	}
}

// TestEnforceWaitErrorZeroAllocs guards the branch a shaped request takes
// when its bucket is closed: TakeAt refuses, Wait returns ErrClosed at
// once, and Enforce hands that error back without building a new one.
func TestEnforceWaitErrorZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	s := New(Info{StageID: "alloc", JobID: "job1"}, clk, WithMode(Enforce))
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	s.Close()
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

	if err := s.Enforce(req); !errors.Is(err, tokenbucket.ErrClosed) {
		t.Fatalf("Enforce on a closed bucket = %v, want ErrClosed", err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.Enforce(req); !errors.Is(err, tokenbucket.ErrClosed) {
			t.Fatalf("Enforce on a closed bucket = %v, want ErrClosed", err)
		}
	}); avg != 0 {
		t.Errorf("Enforce (wait error) allocates %.3f allocs/op, want 0", avg)
	}
}

// countingClock counts the Now calls made on the clock it wraps.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestHotNowAmortizesTheRealClock: on the real clock a request that does
// not wait reads no clock of its own. Each stripe reads it on its first
// request and every clockStride-th after, so n requests on one goroutine
// cost at most n/clockStride reads, plus one per stripe the goroutine's
// stack may move through.
func TestHotNowAmortizesTheRealClock(t *testing.T) {
	s := New(Info{StageID: "clock", JobID: "job1"}, clock.NewReal(), WithMode(Enforce))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	clk := &countingClock{Clock: s.clk}
	s.clk = clk // hotClock stays set, so Enforce keeps the amortized branch
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "u1"}

	const n = 64 * clockStride
	for i := 0; i < n; i++ {
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}
	got, limit := clk.reads.Load(), int64(n/clockStride+metrics.Stripes)
	if got == 0 {
		t.Fatal("no clock read reached the wrapper: the test no longer measures hotNow")
	}
	if got > limit {
		t.Errorf("%d requests read the clock %d times, want at most %d (one per %d requests per stripe)",
			n, got, limit, clockStride)
	}
}
