package stage

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/policy"
	"padll/internal/posix"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func info() Info {
	return Info{StageID: "s1", JobID: "job1", Hostname: "node1", PID: 100, User: "alice"}
}

func openReq() *posix.Request {
	return &posix.Request{Op: posix.OpOpen, Path: "/pfs/f", JobID: "job1"}
}

func TestNoRulesMeansPassthrough(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	for i := 0; i < 100; i++ {
		if err := s.Enforce(openReq()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Collect()
	if st.Passthrough != 100 {
		t.Errorf("passthrough = %d, want 100", st.Passthrough)
	}
	if len(st.Queues) != 0 {
		t.Errorf("queues = %d, want 0", len(st.Queues))
	}
}

func TestUnlimitedRuleNeverBlocks(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	s.ApplyRule(policy.Rule{ID: "pass", Rate: policy.Unlimited})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			if err := s.Enforce(openReq()); err != nil {
				t.Errorf("Enforce: %v", err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("unlimited rule blocked")
	}
	st := s.Collect()
	if st.Queues[0].Total != 10000 {
		t.Errorf("total = %d, want 10000", st.Queues[0].Total)
	}
}

func TestEnforceBlocksAtRate(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 10, Burst: 5})
	results := make(chan error, 10)
	go func() {
		for i := 0; i < 10; i++ {
			results <- s.Enforce(openReq())
		}
	}()
	// Drive the sim clock until all 10 are admitted.
	admitted := 0
	deadline := time.Now().Add(5 * time.Second)
	for admitted < 10 {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
			admitted++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 10 admitted", admitted)
			}
			clk.Advance(50 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	// Burst 5 then 5 more at 10/s needs >= 0.5 sim seconds.
	if got := clk.Now().Sub(epoch); got < 400*time.Millisecond {
		t.Errorf("10 ops at 10/s burst 5 took %v sim time; rate not enforced", got)
	}
}

func TestPassthroughModeCountsButDoesNotThrottle(t *testing.T) {
	s := New(info(), clock.NewSim(epoch), WithMode(Passthrough))
	s.ApplyRule(policy.Rule{ID: "open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 1, Burst: 1})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			if err := s.Enforce(openReq()); err != nil {
				t.Errorf("Enforce: %v", err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("passthrough mode blocked")
	}
	st := s.Collect()
	if st.Queues[0].TotalDemand != 1000 || st.Queues[0].Total != 1000 {
		t.Errorf("demand/total = %d/%d, want 1000/1000", st.Queues[0].TotalDemand, st.Queues[0].Total)
	}
}

func TestQueueSelectionBySpecificity(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: policy.Unlimited})
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	if err := s.Enforce(&posix.Request{Op: posix.OpGetAttr, Path: "/pfs/f"}); err != nil {
		t.Fatal(err)
	}
	st := s.Collect()
	byID := map[string]QueueStats{}
	for _, q := range st.Queues {
		byID[q.RuleID] = q
	}
	if byID["open"].Total != 1 {
		t.Errorf("open queue total = %d, want 1", byID["open"].Total)
	}
	if byID["meta"].Total != 1 {
		t.Errorf("meta queue total = %d, want 1", byID["meta"].Total)
	}
}

func TestSetRateRetunesLiveQueue(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "open", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 0.0001, Burst: 1})
	// Drain the single burst token.
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	// Wait until it parks, then retune to a fast rate.
	clk.BlockUntil(1)
	if !s.SetRate("open", 1e6) {
		t.Fatal("SetRate returned false")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("waiter not released after retune")
			}
			clk.Advance(10 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSetRateUnknownRule(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	if s.SetRate("nope", 10) {
		t.Error("SetRate for unknown rule returned true")
	}
}

func TestApplyRuleUpdateKeepsQueue(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	r := policy.Rule{ID: "q", Rate: policy.Unlimited}
	s.ApplyRule(r)
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	r.Rate = 500
	s.ApplyRule(r)
	st := s.Collect()
	if len(st.Queues) != 1 {
		t.Fatalf("queues = %d, want 1 (update must not duplicate)", len(st.Queues))
	}
	if st.Queues[0].Total != 1 {
		t.Errorf("total lost on update: %d", st.Queues[0].Total)
	}
	if st.Queues[0].Limit != 500 {
		t.Errorf("limit = %v, want 500", st.Queues[0].Limit)
	}
}

func TestRemoveRuleReleasesWaiters(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "slow", Rate: 0.0001, Burst: 1})
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	clk.BlockUntil(1)
	if !s.RemoveRule("slow") {
		t.Fatal("RemoveRule returned false")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("waiter errored after rule removal: %v", err)
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("waiter wedged after rule removal")
			}
			clk.Advance(10 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestRemoveUnknownRule(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	if s.RemoveRule("ghost") {
		t.Error("RemoveRule for unknown rule returned true")
	}
}

func TestOfferFluidAdmission(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 100, Burst: 100})
	// Window 1: burst 100 + window refill 100.
	served := s.Offer(openReq(), 500, time.Second)
	if served != 200 {
		t.Errorf("served = %v, want 200", served)
	}
	clk.Advance(time.Second)
	served = s.Offer(openReq(), 50, time.Second)
	if served != 50 {
		t.Errorf("served under limit = %v, want 50", served)
	}
	st := s.Collect()
	if st.Queues[0].TotalDemand != 550 || st.Queues[0].Total != 250 {
		t.Errorf("demand/total = %d/%d, want 550/250", st.Queues[0].TotalDemand, st.Queues[0].Total)
	}
}

func TestOfferUnmatchedPassesThrough(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	s.ApplyRule(policy.Rule{ID: "j2", Match: policy.Matcher{JobID: "job2"}, Rate: 1})
	served := s.Offer(openReq(), 42, time.Second)
	if served != 42 {
		t.Errorf("unmatched Offer served %v, want 42", served)
	}
	if got := s.Collect().Passthrough; got != 42 {
		t.Errorf("passthrough = %d, want 42", got)
	}
}

func TestCollectDemandVsThroughput(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk, WithWindow(time.Second))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 100, Burst: 100})
	s.Offer(openReq(), 300, time.Second)
	clk.Advance(time.Second)
	s.Offer(openReq(), 0, time.Second) // roll windows
	st := s.Collect()
	q := st.Queues[0]
	if q.DemandRate != 300 {
		t.Errorf("demand rate = %v, want 300", q.DemandRate)
	}
	if q.ThroughputRate != 200 { // burst 100 + window refill 100
		t.Errorf("throughput rate = %v, want 200", q.ThroughputRate)
	}
}

// TestCounterSeriesStayBounded: a stage reads its counters' totals and
// last-window rates, never their series, so each counter keeps one sample
// however long the stage lives — and what Collect reports is exactly what
// a twin with unbounded series reports.
func TestCounterSeriesStayBounded(t *testing.T) {
	clk := clock.NewSim(epoch)
	rule := policy.Rule{ID: "q", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 1000}
	s := New(info(), clk)
	s.ApplyRule(rule)
	twin := New(info(), clk)
	twin.ApplyRule(rule)
	counters := func(s *Stage) []*metrics.RateCounter {
		return []*metrics.RateCounter{s.passthrough, s.queues["q"].admitted, s.queues["q"].demand}
	}
	for _, rc := range counters(twin) {
		rc.SetMaxSamples(0)
	}

	const windows = 10000
	stat := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/f", JobID: "job1"}
	for w := 0; w < windows; w++ {
		for _, stg := range []*Stage{s, twin} {
			for i := 0; i < w%7; i++ {
				if err := stg.Enforce(openReq()); err != nil {
					t.Fatal(err)
				}
			}
			if err := stg.Enforce(stat); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
		if got, want := s.Collect(), twin.Collect(); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: bounded stage collects %+v, unbounded twin %+v", w, got, want)
		}
	}
	for _, rc := range counters(s) {
		if n := rc.Flush().Len(); n != 1 {
			t.Errorf("a stage counter holds %d samples after %d windows, want 1", n, windows)
		}
	}
	for _, rc := range counters(twin) {
		if n := rc.Flush().Len(); n != windows {
			t.Errorf("the unbounded twin holds %d samples, want %d", n, windows)
		}
	}
}

func TestInfoAndModeAccessors(t *testing.T) {
	s := New(info(), clock.NewSim(epoch))
	if s.Info().JobID != "job1" {
		t.Errorf("Info = %+v", s.Info())
	}
	if s.Mode() != Enforce {
		t.Error("default mode should be Enforce")
	}
	s.SetMode(Passthrough)
	if s.Mode() != Passthrough {
		t.Error("SetMode did not switch")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "slow", Rate: 0.0001, Burst: 1})
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	clk.BlockUntil(1)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected an error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after Close")
	}
}

func TestConcurrentEnforceAndRetune(t *testing.T) {
	clk := clock.NewReal()
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "q", Rate: 1e6, Burst: 1e6})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := s.Enforce(openReq()); err != nil {
					t.Errorf("Enforce: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.SetRate("q", float64(1e5+i))
		}
	}()
	wg.Wait()
	if got := s.Collect().Queues[0].Total; got != 2000 {
		t.Errorf("total = %d, want 2000", got)
	}
}

func TestDropActionPolicesInsteadOfQueueing(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "police", Rate: 10, Burst: 3, Action: policy.ActionDrop})
	var admitted, dropped int
	for i := 0; i < 10; i++ {
		switch err := s.Enforce(openReq()); err {
		case nil:
			admitted++
		case ErrRateLimited:
			dropped++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	// Burst of 3 admitted instantly; the other 7 dropped, never queued.
	if admitted != 3 || dropped != 7 {
		t.Errorf("admitted/dropped = %d/%d, want 3/7", admitted, dropped)
	}
	st := s.Collect()
	if st.Queues[0].Dropped != 7 || st.Queues[0].Total != 3 || st.Queues[0].TotalDemand != 10 {
		t.Errorf("queue stats = %+v", st.Queues[0])
	}
	// Refill restores admission.
	clk.Advance(time.Second)
	if err := s.Enforce(openReq()); err != nil {
		t.Errorf("post-refill enforce: %v", err)
	}
}

func TestDropActionPassthroughModeIgnoresPolicing(t *testing.T) {
	s := New(info(), clock.NewSim(epoch), WithMode(Passthrough))
	s.ApplyRule(policy.Rule{ID: "police", Rate: 1, Burst: 1, Action: policy.ActionDrop})
	for i := 0; i < 100; i++ {
		if err := s.Enforce(openReq()); err != nil {
			t.Fatalf("passthrough dropped: %v", err)
		}
	}
}
