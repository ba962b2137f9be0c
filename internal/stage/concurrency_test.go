package stage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// TestConcurrentInvariantConservation drives Enforce, Offer, SetRate and
// Collect concurrently (run under -race) and checks, at every Collect and
// at quiescence, the conservation invariant Total + Dropped <= TotalDemand
// and that no admitted count is lost across snapshot swaps.
func TestConcurrentInvariantConservation(t *testing.T) {
	clk := clock.NewReal()
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "police", Match: policy.Matcher{
		Ops: []posix.Op{posix.OpOpen},
	}, Rate: 1e12, Burst: 1e12, Action: policy.ActionDrop})

	const (
		enforcers   = 4
		perEnforcer = 5000
	)
	var admitted, dropped atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Enforcers: half hit the unlimited metadata queue, half the policing
	// queue (with a bucket so large nothing should actually drop).
	for g := 0; g < enforcers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1"}
			if g%2 == 1 {
				req = &posix.Request{Op: posix.OpOpen, Path: "/pfs/a", JobID: "job1"}
			}
			for i := 0; i < perEnforcer; i++ {
				switch err := s.Enforce(req); err {
				case nil:
					admitted.Add(1)
				case ErrRateLimited:
					dropped.Add(1)
				default:
					t.Errorf("Enforce: %v", err)
					return
				}
			}
		}(g)
	}

	// Control plane: retune rates (forcing snapshot swaps) while the
	// enforcers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rates := []float64{policy.Unlimited, 1e9, policy.Unlimited}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SetRate("meta", rates[i%len(rates)])
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Collector: every snapshot observed mid-flight must satisfy the
	// conservation invariant per queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Collect()
			for _, q := range st.Queues {
				if q.Total+q.Dropped > q.TotalDemand {
					t.Errorf("queue %s: Total(%d) + Dropped(%d) > TotalDemand(%d)",
						q.RuleID, q.Total, q.Dropped, q.TotalDemand)
					return
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// The enforcer goroutines are tracked by wg along with the churners;
	// signal the churners once every enforcer request has resolved.
	for admitted.Load()+dropped.Load() < enforcers*perEnforcer {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := s.Collect()
	var gotAdm, gotDem, gotDrop int64
	for _, q := range st.Queues {
		gotAdm += q.Total
		gotDem += q.TotalDemand
		gotDrop += q.Dropped
	}
	if gotDem != enforcers*perEnforcer {
		t.Errorf("TotalDemand = %d, want %d", gotDem, enforcers*perEnforcer)
	}
	if gotAdm != admitted.Load() {
		t.Errorf("Total = %d, want %d admitted (no count may be lost across snapshot swaps)",
			gotAdm, admitted.Load())
	}
	if gotDrop != dropped.Load() {
		t.Errorf("Dropped = %d, want %d", gotDrop, dropped.Load())
	}
}

// TestConcurrentOfferAndCollect exercises the fluid path against Collect
// and SetRate under the race detector.
func TestConcurrentOfferAndCollect(t *testing.T) {
	s := New(info(), clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: 1e9, Burst: 1e9})
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SetRate("meta", float64(1e8+i))
			st := s.Collect()
			for _, q := range st.Queues {
				if q.Total+q.Dropped > q.TotalDemand {
					t.Errorf("queue %s: Total(%d) + Dropped(%d) > TotalDemand(%d)",
						q.RuleID, q.Total, q.Dropped, q.TotalDemand)
					return
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s.Offer(req, 10.25, time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestRemoveRuleReleasesWaitersUnthrottled parks several goroutines in a
// slow queue's bucket.Wait, removes the rule, and requires every waiter
// to return nil promptly without any simulated-clock advance: removal
// must release them unthrottled, not reschedule them.
func TestRemoveRuleReleasesWaitersUnthrottled(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "slow", Rate: 0.0001, Burst: 1})
	if err := s.Enforce(openReq()); err != nil { // drain the single burst token
		t.Fatal(err)
	}
	const waiters = 4
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- s.Enforce(openReq()) }()
	}
	clk.BlockUntil(waiters)
	if !s.RemoveRule("slow") {
		t.Fatal("RemoveRule returned false")
	}
	// No clk.Advance: the simulated clock is frozen, so the only way out
	// is the removal's unthrottled release.
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("waiter errored after rule removal: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d wedged after rule removal (throttled release?)", i)
		}
	}
	// The released requests must still be accounted: they were admitted.
	if got := s.Collect(); len(got.Queues) != 0 {
		t.Errorf("removed queue still reported: %+v", got.Queues)
	}
}

// TestOfferFractionalAccumulation checks that fractional fluid arrivals
// accumulate into whole counted events instead of being truncated away
// every tick.
func TestOfferFractionalAccumulation(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata},
	}, Rate: policy.Unlimited})
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1"}

	// 8 ticks × 0.5 requests: the old truncation counted 0.
	for i := 0; i < 8; i++ {
		if got := s.Offer(req, 0.5, 100*time.Millisecond); got != 0.5 {
			t.Fatalf("Offer returned %v, want 0.5", got)
		}
		clk.Advance(100 * time.Millisecond)
	}
	st := s.Collect()
	if len(st.Queues) != 1 {
		t.Fatalf("queues = %d, want 1", len(st.Queues))
	}
	q := st.Queues[0]
	if q.TotalDemand != 4 {
		t.Errorf("TotalDemand = %d, want 4 (8 × 0.5 accumulated)", q.TotalDemand)
	}
	if q.Total != 4 {
		t.Errorf("Total = %d, want 4", q.Total)
	}

	// Unmatched fractional offers accumulate into the passthrough counter.
	other := &posix.Request{Op: posix.OpWrite, Path: "/pfs/a", JobID: "job1"}
	for i := 0; i < 4; i++ {
		s.Offer(other, 0.25, 100*time.Millisecond)
	}
	if st := s.Collect(); st.Passthrough != 1 {
		t.Errorf("Passthrough = %d, want 1 (4 × 0.25 accumulated)", st.Passthrough)
	}
}

// TestWaitPercentilesExported checks that queue wait latency shows up in
// QueueStats percentiles once requests have been shaped.
func TestWaitPercentilesExported(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "slow", Rate: 10, Burst: 1})
	if err := s.Enforce(openReq()); err != nil { // token available: no wait
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	clk.BlockUntil(1)
	clk.Advance(100 * time.Millisecond) // exactly one token at 10/s
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := s.Collect()
	if len(st.Queues) != 1 {
		t.Fatalf("queues = %d, want 1", len(st.Queues))
	}
	q := st.Queues[0]
	if q.WaitP50 <= 0 || q.WaitP99 <= 0 {
		t.Errorf("wait percentiles not exported: p50=%v p95=%v p99=%v", q.WaitP50, q.WaitP95, q.WaitP99)
	}
	if q.WaitP50 > q.WaitP95 || q.WaitP95 > q.WaitP99 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", q.WaitP50, q.WaitP95, q.WaitP99)
	}
	// The histogram's bucket upper bound containing 100ms is < 1s.
	if q.WaitP99 < 0.05 || q.WaitP99 > 1 {
		t.Errorf("WaitP99 = %v s, want ~0.1s bucket", q.WaitP99)
	}
}

// TestSnapshotClassifyMatchesRuleSetSelect cross-checks the stage's per-op
// dispatch snapshot against policy.RuleSet.Select for a mixed rule set.
func TestSnapshotClassifyMatchesRuleSetSelect(t *testing.T) {
	rules := []policy.Rule{
		{ID: "open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen, posix.OpCreat}}, Rate: policy.Unlimited},
		{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory}}, Rate: policy.Unlimited},
		{ID: "scratch", Match: policy.Matcher{PathPrefix: "/pfs/scratch"}, Rate: policy.Unlimited},
		{ID: "job2", Match: policy.Matcher{JobID: "job2"}, Rate: policy.Unlimited},
		{ID: "user-open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}, User: "bob"}, Rate: policy.Unlimited},
	}
	s := New(info(), clock.NewSim(epoch))
	rs := policy.NewRuleSet()
	for _, r := range rules {
		s.ApplyRule(r)
		rs.Upsert(r)
	}
	sn := s.snap.Load()
	for op := 0; op < posix.NumOps; op++ {
		for _, path := range []string{"/pfs/a", "/pfs/scratch/x", "/other"} {
			for _, job := range []string{"job1", "job2"} {
				for _, user := range []string{"alice", "bob"} {
					req := &posix.Request{Op: posix.Op(op), Path: path, JobID: job, User: user}
					want := rs.Select(req)
					got := sn.classify(req)
					switch {
					case want == nil && got != nil:
						t.Fatalf("%v: classify found %q, Select found none", reqLabel(req), got.id)
					case want != nil && got == nil:
						t.Fatalf("%v: classify found none, Select found %q", reqLabel(req), want.ID)
					case want != nil && got.id != want.ID:
						t.Fatalf("%v: classify=%q Select=%q", reqLabel(req), got.id, want.ID)
					}
				}
			}
		}
	}
}

func reqLabel(req *posix.Request) string {
	return fmt.Sprintf("op=%v path=%s job=%s user=%s", req.Op, req.Path, req.JobID, req.User)
}
