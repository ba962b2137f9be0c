package stage

import (
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
)

// managedMatcher is the matcher of the rule the controller installs on a
// job's stages: the metadata-like classes, scoped to the job.
func managedMatcher() policy.Matcher {
	return policy.Matcher{
		Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory, posix.ClassExtAttr},
		JobID:   "job1",
	}
}

// TestShapedAdmitConcurrentConservation drives the token-in-hand admit
// path — a finite limit that never binds — from several goroutines on
// the real (amortized) clock, beside a collector (run under -race). The
// path keeps its books in per-stripe cells, so this is where a lost or
// reordered update would show: demand lands before admitted at every
// concurrent Collect, nothing is lost at rest, every wait was zero, and
// a quiescence token minted before the burst does not survive it.
func TestShapedAdmitConcurrentConservation(t *testing.T) {
	s := New(info(), clock.NewReal())
	s.ApplyRule(policy.Rule{ID: "managed", Match: managedMatcher(), Rate: 1e9})
	_, tok := collectQuiet(t, s)
	if tok == 0 {
		t.Fatal("idle stage minted no quiescence token")
	}

	const (
		workers = 4
		perG    = 20000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &posix.Request{Op: posix.OpGetAttr, Path: "/pfs/a", JobID: "job1"}
			for i := 0; i < perG; i++ {
				if err := s.Enforce(req); err != nil {
					t.Errorf("Enforce: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	collector := sync.WaitGroup{}
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := s.Collect().Queues[0]
			if q.Total+q.Dropped > q.TotalDemand {
				t.Errorf("mid-flight: Total %d + Dropped %d > TotalDemand %d", q.Total, q.Dropped, q.TotalDemand)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	collector.Wait()

	if s.QuietSince(tok) {
		t.Error("quiescence token minted before the burst is still valid after it")
	}
	q := s.Collect().Queues[0]
	if q.Total != workers*perG || q.TotalDemand != workers*perG || q.Dropped != 0 || q.Waiting != 0 {
		t.Errorf("at rest: Total %d TotalDemand %d Dropped %d Waiting %d, want %d/%d/0/0",
			q.Total, q.TotalDemand, q.Dropped, q.Waiting, workers*perG, workers*perG)
	}
	if q.WaitP99 != 0 {
		t.Errorf("WaitP99 = %v on a limit that never bound, want 0", q.WaitP99)
	}
	lat := s.queues["managed"].latency
	if got := lat.Count(); got != workers*perG {
		t.Errorf("wait observations = %d, want one per admitted request (%d)", got, workers*perG)
	}
	if got := s.queues["managed"].bucket.Granted(); got != workers*perG {
		t.Errorf("bucket Granted = %v, want %d", got, workers*perG)
	}
}

// TestDryBucketStillBlocks pins the other side of the admit branch: the
// first request finds its token in hand and records a zero wait; the
// second finds the bucket dry and takes the exact path untouched — it
// blocks, counts as Waiting, and records the wait it actually served.
func TestDryBucketStillBlocks(t *testing.T) {
	clk := clock.NewSim(epoch)
	s := New(info(), clk)
	s.ApplyRule(policy.Rule{ID: "slow", Rate: 10, Burst: 1})
	if err := s.Enforce(openReq()); err != nil {
		t.Fatal(err)
	}
	lat := s.queues["slow"].latency
	if lat.Count() != 1 || lat.Max() != 0 {
		t.Fatalf("token in hand: %d observations, max %v; want 1 of zero length", lat.Count(), lat.Max())
	}

	done := make(chan error, 1)
	go func() { done <- s.Enforce(openReq()) }()
	waitForWaiter(t, s, clk) // Waiting == 1
	select {
	case err := <-done:
		t.Fatalf("dry bucket admitted without waiting (err=%v)", err)
	default:
	}
	clk.Advance(100 * time.Millisecond) // exactly one token at 10/s
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	q := s.Collect().Queues[0]
	if q.Total != 2 || q.TotalDemand != 2 || q.Waiting != 0 {
		t.Errorf("Total %d TotalDemand %d Waiting %d, want 2/2/0", q.Total, q.TotalDemand, q.Waiting)
	}
	if lat.Count() != 2 || lat.Min() != 0 || lat.Max() != 0.1 {
		t.Errorf("waits: n=%d min=%v max=%v, want 2 observations spanning 0 to 0.1s", lat.Count(), lat.Min(), lat.Max())
	}
}
