package control

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// muteListener serves connections whose replies are swallowed while
// mute is set: the peer is up and reading, and never answers — a hung
// stage.
type muteListener struct {
	net.Listener
	mute *atomic.Bool
}

type muteConn struct {
	net.Conn
	mute *atomic.Bool
}

func (l *muteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &muteConn{Conn: c, mute: l.mute}, nil
}

func (c *muteConn) Write(p []byte) (int, error) {
	if c.mute.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// remoteStage serves a stage on its own loopback listener (muted while
// *mute is set, when mute is non-nil) and returns a RemoteConn to it.
func remoteStage(t *testing.T, id, job string, mute *atomic.Bool, opts ...rpcio.DialOption) (*stage.Stage, *RemoteConn) {
	t.Helper()
	stg := stage.New(stage.Info{StageID: id, JobID: job}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := l
	if mute != nil {
		served = &muteListener{Listener: l, mute: mute}
	}
	t.Cleanup(rpcio.ServeStage(served, stg))
	h, err := rpcio.DialStage(l.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return stg, NewRemoteConn(stg.Info(), h)
}

// TestHungPeersCostTheRoundOneTimeout: three members in one goroutine's
// range — all of the round's at one worker, s0..s3 of it at two — stop
// answering. Their deadlines run
// from the send, so they expire together when the first does, and their
// retries — backoff, redial, a second attempt that hangs too — run side
// by side: the round takes exactly what one blocking exchange with one
// hung peer takes (timeout + backoff + timeout), not three times that.
// The clock is simulated and only ever advanced by a full step once the
// expected waiters are parked on it, so the duration is exact.
func TestHungPeersCostTheRoundOneTimeout(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { hungPeersRound(t, workers) })
	}
}

func hungPeersRound(t *testing.T, workers int) {
	const timeout = 150 * time.Millisecond
	backoff := rpcio.Backoff{Base: 40 * time.Millisecond, Factor: 2, Attempts: 2}
	delays := backoff.Delays()
	clk := clock.NewSim(epoch)
	var (
		mu       sync.Mutex
		reported []string
	)
	c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(10000), WithPushConcurrency(workers),
		WithErrorHandler(func(id string, err error) {
			mu.Lock()
			reported = append(reported, id)
			mu.Unlock()
		}))
	c.SetReservation("healthy", 5000)
	c.SetReservation("hung", 3000)
	var mute atomic.Bool
	hung := map[string]bool{"s1": true, "s2": true, "s3": true}
	for i := 0; i < 8; i++ {
		// Only the members that will hang keep time on the simulated
		// clock: a healthy member's wait for a reply that is a few
		// microseconds away must not be a waiter the test could mistake
		// for a hung one and advance past.
		id, job := fmt.Sprintf("s%d", i), "healthy"
		var (
			m    *atomic.Bool
			opts []rpcio.DialOption
		)
		if hung[id] {
			job, m = "hung", &mute
			opts = []rpcio.DialOption{rpcio.WithHandleClock(clk), rpcio.WithCallTimeout(timeout), rpcio.WithBackoff(backoff)}
		}
		_, conn := remoteStage(t, id, job, m, opts...)
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	c.RunOnce() // first contact: full snapshots, rates pushed
	c.RunOnce() // steady: nothing to push
	if rs, _ := c.LastRound(); rs.CollectFailures != 0 || rs.PushCalls != 0 || rs.Duration != 0 {
		t.Fatalf("steady round before the fault: %+v", rs)
	}

	mute.Store(true)
	done := make(chan map[string]float64, 1)
	go func() { done <- c.RunOnce() }()
	clk.BlockUntil(1) // s1's gatherer; s2 and s3 wait behind it, already late
	clk.Advance(timeout)
	clk.BlockUntil(3) // the three retries, backing off side by side
	clk.Advance(delays[0])
	clk.BlockUntil(3) // their second attempts, sent together
	clk.Advance(timeout)
	alloc := <-done

	rs, _ := c.LastRound()
	if want := 2*timeout + delays[0]; rs.Duration != want {
		t.Errorf("round took %v, want %v: what one exchange with one hung peer costs", rs.Duration, want)
	}
	if rs.CollectFailures != 3 || rs.CollectCalls != 8 || rs.Stages != 8 {
		t.Errorf("round accounting %+v, want 3 failures of 8 collects over 8 stages", rs)
	}
	// The hung job has no member left to speak for it, so nothing is
	// granted or pushed there; the healthy one is untouched.
	if rs.PushCalls != 0 || len(alloc) != 1 || alloc["healthy"] != 5000 {
		t.Errorf("allocation %v with %d pushes, want only the healthy job at 5000 and none", alloc, rs.PushCalls)
	}
	mu.Lock()
	if !reflect.DeepEqual(reported, []string{"s1", "s2", "s3"}) {
		t.Errorf("errors reported for %v, want s1 s2 s3 in StageID order", reported)
	}
	mu.Unlock()
	mute.Store(false)
	snaps := c.CollectAll()
	if len(snaps) != 2 || snaps[0].JobID != "healthy" || snaps[0].Stages != 5 || snaps[1].Stages != 3 {
		t.Errorf("after the fault cleared: %+v, want 5 healthy and 3 recovered stages", snaps)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d waiters left on the clock", n)
	}
}

// TestAdministratorInstallsReachEveryStage: an install that fails on a
// stage in the middle still reaches every other stage, at the split
// rate, and the error names the first failure in StageID order — at
// every granularity.
func TestAdministratorInstallsReachEveryStage(t *testing.T) {
	rule := policy.Rule{ID: "admin", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 1200}
	for _, tc := range []struct {
		name    string
		install func(c *Controller) error
		want    map[string]float64 // rate of the rule per stage, -1: absent
		errHas  string
	}{
		{"job", func(c *Controller) error { return c.ApplyRuleToJob("jobA", rule) },
			map[string]float64{"a1": 400, "a2": -1, "a3": 400, "b1": -1, "b2": -1, "b3": -1}, "on a2"},
		{"jobs", func(c *Controller) error { return c.ApplyRuleToJobs([]string{"jobA", "nojob", "jobB"}, rule) },
			map[string]float64{"a1": 400.0 / 3, "a2": -1, "a3": 400.0 / 3, "b1": 400.0 / 3, "b2": -1, "b3": 400.0 / 3}, "on a2"},
		{"cluster", func(c *Controller) error { return c.ApplyRuleCluster(rule) },
			map[string]float64{"a1": 200, "a2": -1, "a3": 200, "b1": 200, "b2": -1, "b3": 200}, "on a2"},
	} {
		clk := clock.NewSim(epoch)
		c := New(clk)
		stages := make(map[string]*stage.Stage)
		// Registered out of order: the pass sorts.
		for _, id := range []string{"b3", "a2", "b1", "a3", "b2", "a1"} {
			stg := stage.New(stage.Info{StageID: id, JobID: "job" + strings.ToUpper(id[:1])}, clk)
			stages[id] = stg
			var conn StageConn = loopbackConn(stg)
			if id[1] == '2' {
				conn = refusingConn(stg, func(op rpcio.StageOp) bool { return op.Kind == rpcio.OpApplyRule && op.Rule.ID == rule.ID })
			}
			if err := c.Register(conn); err != nil {
				t.Fatal(err)
			}
		}
		err := tc.install(c)
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err = %v, want the first failure in StageID order (%q)", tc.name, err, tc.errHas)
		}
		for id, want := range tc.want {
			if got := ruleRate(stages[id], rule.ID); got != want {
				t.Errorf("%s: stage %s holds the rule at %v, want %v", tc.name, id, got, want)
			}
		}
	}
}

// mixedFleet registers twelve stages across three jobs with a
// controller driving its rounds on workers goroutines: members behind
// the codec in process, members over TCP, one that never answers a
// collect and one that refuses retunes.
func mixedFleet(t *testing.T, workers int) (*Controller, *clock.Sim, map[string]*stage.Stage, *[]string) {
	t.Helper()
	clk := clock.NewSim(epoch)
	reported := new([]string)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(6000), WithPushConcurrency(workers),
		WithErrorHandler(func(id string, err error) { *reported = append(*reported, id+": "+err.Error()) }))
	stages := make(map[string]*stage.Stage)
	for i := 0; i < 12; i++ {
		id, job := fmt.Sprintf("s%02d", i), fmt.Sprintf("job%d", i%3)
		stg := stage.New(stage.Info{StageID: id, JobID: job}, clk)
		stages[id] = stg
		var conn StageConn
		switch {
		case i == 4:
			conn = failingConn(stg)
		case i == 7:
			conn = setRateFailingConn(stg)
		case i%3 != 2:
			conn = loopbackConn(stg)
		default:
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rpcio.ServeStage(l, stg))
			h, err := rpcio.DialStage(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = h.Close() })
			conn = NewRemoteConn(stg.Info(), h)
		}
		c.SetReservation(job, float64(1000*(i%3+1)))
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	return c, clk, stages, reported
}

// TestRoundOutcomeIsTheSameAtEveryWorkerCount: how many goroutines
// drive a round changes how its exchanges overlap and nothing else —
// allocations, per-job rows, round accounting, the rates the stages end
// up enforcing and the order errors are reported in are identical at 1,
// 2 and 8, round after round, over a fleet that mixes every kind of
// connection with members that fail.
func TestRoundOutcomeIsTheSameAtEveryWorkerCount(t *testing.T) {
	type outcome struct {
		Alloc    []map[string]float64
		Rounds   []RoundStats
		Rows     [][]JobSnapshot
		Rates    map[string]float64
		Reported []string
	}
	run := func(workers int) outcome {
		c, clk, stages, reported := mixedFleet(t, workers)
		var o outcome
		for round := 0; round < 6; round++ {
			for i := 0; i < 12; i++ {
				stg := stages[fmt.Sprintf("s%02d", i)]
				demand := float64(100 * (1 + (i+round)%5))
				stg.Offer(&posix.Request{Op: posix.OpOpen, Path: "/f", JobID: stg.Info().JobID}, demand, time.Second)
			}
			clk.Advance(time.Second)
			o.Alloc = append(o.Alloc, c.RunOnce())
			rs, _ := c.LastRound()
			// Wire bytes carry the handles' random collector identities,
			// whose varint width differs from run to run.
			rs.BytesRead, rs.BytesWritten = 0, 0
			o.Rounds = append(o.Rounds, rs)
			o.Rows = append(o.Rows, c.CollectAll())
		}
		o.Rates = make(map[string]float64)
		for id, stg := range stages {
			o.Rates[id] = ruleRate(stg, ControlRuleID)
		}
		o.Reported = *reported
		return o
	}
	want := run(1)
	if len(want.Reported) == 0 || want.Rounds[5].CollectFailures != 1 || want.Rounds[5].Stages != 12 {
		t.Fatalf("the fleet's failing members did not fail: %+v, reported %v", want.Rounds[5], want.Reported)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
