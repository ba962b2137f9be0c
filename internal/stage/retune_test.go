package stage

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// memoOf returns the classification memo entry req's key occupies in sn
// (nil when the key was never memoized).
func memoOf(sn *snapshot, req *posix.Request) *cacheEntry {
	var dir string
	if !sn.pathFree[req.Op] {
		dir, _ = dirOf(req.Path)
	}
	return sn.cache[cacheHash(req.Op, req.JobID, req.User, dir)&(cacheSlots-1)].Load()
}

// controlQueue returns the named queue's row of a fresh Collect.
func controlQueue(t *testing.T, s *Stage, id string) QueueStats {
	t.Helper()
	for _, q := range s.Collect().Queues {
		if q.RuleID == id {
			return q
		}
	}
	t.Fatalf("no queue %q in Collect", id)
	return QueueStats{}
}

// TestSetRateKeepsClassificationCache pins what a retune may touch: the
// published snapshot and everything the data plane memoized in it
// survive a rate-only change (SetRate, or ApplyRule of the installed
// rule with another rate or burst), while the change itself is visible
// to Collect, Rules and the quiescence epoch. A changed matcher or
// action is a rule-set mutation and still republishes.
func TestSetRateKeepsClassificationCache(t *testing.T) {
	s := New(info(), clock.NewSim(time.Unix(0, 0)))
	rule := policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9}
	s.ApplyRule(rule)
	req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/job1/f", JobID: "job1", User: "alice"}
	if err := s.Enforce(req); err != nil {
		t.Fatal(err)
	}
	sn := s.snap.Load()
	memo := memoOf(sn, req)
	if memo == nil || memo.e == nil || memo.e.id != "managed" {
		t.Fatalf("request not memoized under the managed rule: %+v", memo)
	}
	tok := s.CollectQuietInto(new(Stats))

	unchanged := func(step string) {
		t.Helper()
		if got := s.snap.Load(); got != sn {
			t.Fatalf("%s republished the snapshot", step)
		}
		if got := memoOf(sn, req); got != memo {
			t.Fatalf("%s dropped the memoized classification", step)
		}
	}

	if !s.SetRate("managed", 250) {
		t.Fatal("SetRate on an installed rule reported not found")
	}
	unchanged("SetRate")
	if q := controlQueue(t, s, "managed"); q.Limit != 250 || q.Burst != 25 {
		t.Fatalf("after SetRate(250): Limit %v Burst %v, want 250/25", q.Limit, q.Burst)
	}
	if got := s.Rules()[0].Rate; got != 250 {
		t.Fatalf("Rules() reports rate %v after SetRate(250)", got)
	}
	if tok != 0 && s.QuietSince(tok) {
		t.Fatal("a retune left the pre-retune quiescence token valid")
	}

	rule.Rate, rule.Burst = 400, 8
	s.ApplyRule(rule)
	unchanged("ApplyRule with only rate and burst changed")
	if q := controlQueue(t, s, "managed"); q.Limit != 400 || q.Burst != 8 {
		t.Fatalf("after ApplyRule(400, burst 8): Limit %v Burst %v", q.Limit, q.Burst)
	}
	if got := s.Rules()[0]; got.Rate != 400 || got.Burst != 8 {
		t.Fatalf("Rules() reports %+v after ApplyRule(400, burst 8)", got)
	}

	// The configured burst outlives later rate-only retunes, and a
	// retune to Unlimited is read by the very next request.
	s.SetRate("managed", policy.Unlimited)
	unchanged("SetRate(Unlimited)")
	if q := controlQueue(t, s, "managed"); q.Limit != policy.Unlimited || q.Burst != 8 {
		t.Fatalf("after SetRate(Unlimited): Limit %v Burst %v, want -1/8", q.Limit, q.Burst)
	}
	for i := 0; i < 100; i++ { // far past the burst; nothing may park on the frozen clock
		if err := s.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}

	rule.Match.JobID = "job2"
	s.ApplyRule(rule)
	if s.snap.Load() == sn {
		t.Fatal("ApplyRule with a changed matcher did not republish")
	}
	if e := s.snap.Load().classifyCached(req); e != nil {
		t.Fatalf("job1 request still classified under %q after the rule moved to job2", e.id)
	}
	sn = s.snap.Load()
	rule.Action = policy.ActionDrop
	s.ApplyRule(rule)
	if s.snap.Load() == sn {
		t.Fatal("ApplyRule with a changed action did not republish")
	}
}

// TestSetRateZeroAllocs: the feedback loop's retune allocates nothing —
// no rule-set copy, no index, no snapshot, no bucket broadcast channel.
func TestSetRateZeroAllocs(t *testing.T) {
	s := New(info(), clock.NewSim(time.Unix(0, 0)))
	s.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited})
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 100})
	rates := [...]float64{200, 300, policy.Unlimited, 50}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if !s.SetRate("managed", rates[i%len(rates)]) {
			t.Fatal("rule vanished")
		}
		i++
	}); avg != 0 {
		t.Errorf("SetRate allocates %.3f allocs/op, want 0", avg)
	}
}

// TestRetuneRacesEnforce retunes one queue unlimited → finite →
// unlimited, over and over, under enforcers that never pause. The stage
// runs on a simulated clock nobody advances and the finite rates refill
// a token in hours, so a request that parks under a finite limit leaves
// only when a retune to unlimited wakes it: a lost wake-up hangs the test.
// Meanwhile a collector checks that every snapshot conserves requests
// (Total + Dropped <= TotalDemand) and reports a Limit/Burst pair some
// single retune left behind, never halves of two.
func TestRetuneRacesEnforce(t *testing.T) {
	const (
		enforcers = 16
		cycles    = 150
	)
	clk := clock.NewSim(time.Unix(0, 0))
	s := New(info(), clk)
	match := policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}
	// The burst each rate is installed with. A finite limit is only ever
	// installed together with its burst, so any other burst beside it is
	// torn; SetRate(Unlimited) keeps whichever burst came before.
	pairs := map[float64]float64{policy.Unlimited: 7, 1e-3: 3, 2e-3: 5}
	apply := func(rate float64) {
		s.ApplyRule(policy.Rule{ID: "q", Match: match, Rate: rate, Burst: pairs[rate]})
	}
	apply(policy.Unlimited)
	sn := s.snap.Load()

	var admitted atomic.Int64
	stop := make(chan struct{})
	var workers, collector sync.WaitGroup
	for g := 0; g < enforcers; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Enforce(req); err != nil {
					t.Errorf("Enforce: %v", err)
					return
				}
				admitted.Add(1)
			}
		}()
	}
	collector.Add(1)
	go func() {
		defer collector.Done()
		var st Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.CollectInto(&st)
			q := st.Queues[0]
			if q.Total+q.Dropped > q.TotalDemand {
				t.Errorf("Total(%d) + Dropped(%d) > TotalDemand(%d)", q.Total, q.Dropped, q.TotalDemand)
				return
			}
			if want, ok := pairs[q.Limit]; !ok || (q.Burst != want && q.Limit != policy.Unlimited) {
				t.Errorf("Collect reported Limit %v with Burst %v: no retune installed that pair", q.Limit, q.Burst)
				return
			}
			runtime.Gosched()
		}
	}()

	q := s.queues["q"]
	for i := 0; i < cycles && !t.Failed(); i++ {
		finite, other := 1e-3, 2e-3
		if i%2 == 1 {
			finite, other = other, finite
		}
		apply(finite)
		// Every enforcer spends the burst and ends up blocked in the
		// bucket; retuning under all of them is the case to survive.
		for q.waiting.Load() < enforcers && !t.Failed() {
			runtime.Gosched()
		}
		// A retune between finite rates re-times the sleepers and
		// releases none: they are all still there for the next one.
		apply(other)
		if i%3 == 0 {
			s.SetRate("q", policy.Unlimited)
		} else {
			apply(policy.Unlimited)
		}
	}
	close(stop)
	workers.Wait() // a stranded waiter never returns
	collector.Wait()

	if s.snap.Load() != sn {
		t.Error("a rate/burst retune republished the snapshot")
	}
	st := s.Collect().Queues[0]
	if st.Waiting != 0 {
		t.Errorf("Waiting = %d at quiescence", st.Waiting)
	}
	if st.Total != admitted.Load() || st.TotalDemand != st.Total || st.Dropped != 0 {
		t.Errorf("at quiescence Total %d TotalDemand %d Dropped %d, want all = %d admitted",
			st.Total, st.TotalDemand, st.Dropped, admitted.Load())
	}
}
