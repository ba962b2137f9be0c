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
// *mute is set, when mute is non-nil) and returns a handle dialed to it.
func remoteStage(t *testing.T, id, job string, mute *atomic.Bool, opts ...rpcio.DialOption) (*stage.Stage, *rpcio.StageHandle) {
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
	return stg, h
}

// TestHungPeersCostTheRoundOneTimeout: workers of a round's members
// stop answering — of eight members, s001 onwards; of 96, at four P, two
// in each of the collect's two scatter chunks. Their deadlines run from
// the send, so they expire together when the first does: the round
// takes exactly one DefaultCallTimeout, not workers times that, and
// nothing sleeps on the clock. A deadline ends its handle, so the round
// drops the hung members, reported once each: the round after it, with
// their stages answering again, neither asks nor reports them, until
// those stages register again on new connections. The hung members'
// handles differ from production only in
// their clock, which is simulated and only ever advanced by a full step
// once the expected waiter is parked on it, so the duration is exact.
func TestHungPeersCostTheRoundOneTimeout(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hungPeersRound(t, 8, []int{1, 2, 3}[:workers])
		})
	}
	t.Run("stages=96,procs=4,workers=4", func(t *testing.T) {
		withProcs(t, 4)
		hungPeersRound(t, 96, []int{1, 40, 70, 95})
	})
}

// hungPeersRound runs the hung-peer round over n TCP members, the ones
// at the indices in hungAt hanging.
func hungPeersRound(t *testing.T, n int, hungAt []int) {
	const timeout = rpcio.DefaultCallTimeout
	workers := len(hungAt)
	clk := clock.NewSim(epoch)
	var (
		mu       sync.Mutex
		reported []string
	)
	c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(10000),
		WithErrorHandler(func(id string, err error) {
			mu.Lock()
			reported = append(reported, id)
			mu.Unlock()
		}))
	c.SetReservation("healthy", 5000)
	c.SetReservation("hung", 3000)
	var mute atomic.Bool
	hung := make(map[string]bool)
	var hungIDs []string
	for _, i := range hungAt {
		id := fmt.Sprintf("s%03d", i)
		hung[id] = true
		hungIDs = append(hungIDs, id)
	}
	for i := 0; i < n; i++ {
		// Only the members that will hang keep time on the simulated
		// clock: a healthy member's wait for a reply that is a few
		// microseconds away must not be a waiter the test could mistake
		// for a hung one and advance past.
		id, job := fmt.Sprintf("s%03d", i), "healthy"
		var (
			m    *atomic.Bool
			opts []rpcio.DialOption
		)
		if hung[id] {
			job, m = "hung", &mute
			opts = []rpcio.DialOption{rpcio.WithHandleClock(clk)}
		}
		stg, h := remoteStage(t, id, job, m, opts...)
		if err := c.Register(stg.Info(), h); err != nil {
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
	clk.BlockUntil(1) // the first hung member's gatherer; the others wait behind it, already late
	clk.Advance(timeout)
	alloc := <-done

	rs, _ := c.LastRound()
	if rs.Duration != timeout {
		t.Errorf("round took %v, want %v: one deadline, whatever the number of hung peers", rs.Duration, timeout)
	}
	if rs.CollectFailures != workers || rs.CollectCalls != n || rs.Stages != n {
		t.Errorf("round accounting %+v, want %d failures of %d collects over %d stages", rs, workers, n, n)
	}
	// The hung job has no member left to speak for it, so nothing is
	// granted or pushed there; the healthy one is untouched.
	if rs.PushCalls != 0 || len(alloc) != 1 || alloc["healthy"] != 5000 {
		t.Errorf("allocation %v with %d pushes, want only the healthy job at 5000 and none", alloc, rs.PushCalls)
	}
	mu.Lock()
	if !reflect.DeepEqual(reported, hungIDs) {
		t.Errorf("errors reported for %v, want %v in StageID order", reported, hungIDs)
	}
	mu.Unlock()
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d waiters left on the clock", n)
	}

	if got := len(c.Stages()); got != n-workers {
		t.Errorf("%d stages registered after the round, want the %d that answered", got, n-workers)
	}

	mute.Store(false)
	c.RunOnce()
	if rs, _ := c.LastRound(); rs.Duration != 0 || rs.CollectFailures != 0 || rs.Stages != n-workers {
		t.Errorf("round after the fault cleared: %+v, want the %d live stages alone, none failing", rs, n-workers)
	}
	mu.Lock()
	if len(reported) != workers {
		t.Errorf("errors reported for %v after the round that dropped them, want each hung member once", reported)
	}
	mu.Unlock()
	for _, id := range hungIDs { // the stages register again
		stg, h := remoteStage(t, id, "hung", nil)
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	snaps := c.CollectAll()
	if len(snaps) != 2 || snaps[0].JobID != "healthy" || snaps[0].Stages != n-workers || snaps[1].Stages != workers {
		t.Errorf("after the stages registered again: %+v, want %d healthy and %d hung stages answering", snaps, n-workers, workers)
	}
}

// TestAdministratorInstallsReachEveryStage: an install that fails on a
// stage in the middle still reaches every other stage, at the split
// rate, and the error names the first failure in StageID order — at
// every granularity. The stage's refusal (a RemoteError) is tried once
// and fails only its own exchange: the refusing stage is collected by
// the next read with the rest.
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
			h := loopbackHandle(stg)
			if id[1] == '2' {
				h = refusingConn(stg, func(op rpcio.StageOp) bool { return op.Kind == rpcio.OpApplyRule && op.Rule.ID == rule.ID })
			}
			if err := c.Register(stg.Info(), h); err != nil {
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
		stagesAnswering := 0
		for _, row := range c.CollectAll() {
			stagesAnswering += row.Stages
		}
		if stagesAnswering != len(stages) {
			t.Errorf("%s: %d of %d stages answered the read after the install", tc.name, stagesAnswering, len(stages))
		}
	}
}

// mixedFleet registers twelve stages across three jobs with a
// controller: members behind the codec in process, members over TCP,
// one whose link dies under its first collect and one whose stage
// refuses retunes.
func mixedFleet(t *testing.T) (*Controller, *clock.Sim, map[string]*stage.Stage, *[]string) {
	t.Helper()
	clk := clock.NewSim(epoch)
	reported := new([]string)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(6000),
		WithErrorHandler(func(id string, err error) { *reported = append(*reported, id+": "+err.Error()) }))
	stages := make(map[string]*stage.Stage)
	for i := 0; i < 12; i++ {
		id, job := fmt.Sprintf("s%02d", i), fmt.Sprintf("job%d", i%3)
		stg := stage.New(stage.Info{StageID: id, JobID: job}, clk)
		stages[id] = stg
		var h *rpcio.StageHandle
		switch {
		case i == 4:
			h = failingConn(stg)
		case i == 7:
			h = setRateFailingConn(stg)
		case i%3 != 2:
			h = loopbackHandle(stg)
		default:
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rpcio.ServeStage(l, stg))
			if h, err = rpcio.DialStage(l.Addr().String()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = h.Close() })
		}
		c.SetReservation(job, float64(1000*(i%3+1)))
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	return c, clk, stages, reported
}

// TestRoundOutcomeIsTheSameOnEveryRun: a round is a function of the
// fleet — allocations, per-job rows, round accounting down to the wire
// bytes, the rates the stages end up enforcing and the order errors are
// reported in are identical on two runs, round after round, over a
// fleet that mixes every kind of stage handle with members that fail,
// TCP replies arriving in whatever order they do. Nothing is retried,
// and each failure is reported once, in StageID order: s04's link dies
// under the first collect, which drops it; s07's stage refuses its
// retune in every round, which leaves it registered.
func TestRoundOutcomeIsTheSameOnEveryRun(t *testing.T) {
	type outcome struct {
		Alloc    []map[string]float64
		Rounds   []RoundStats
		Rows     [][]JobSnapshot
		Rates    map[string]float64
		Reported []string
	}
	run := func() outcome {
		c, clk, stages, reported := mixedFleet(t)
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
	want := run()
	if want.Rounds[0].CollectFailures != 1 || want.Rounds[5].CollectFailures != 0 || want.Rounds[5].Stages != 11 {
		t.Fatalf("the fleet's failing members did not fail: %+v, reported %v", want.Rounds, want.Reported)
	}
	ok := len(want.Reported) == 7 && strings.HasPrefix(want.Reported[0], "s04: ")
	for _, r := range want.Reported[min(1, len(want.Reported)):] {
		ok = ok && strings.HasPrefix(r, "s07: ")
	}
	if !ok {
		t.Fatalf("reported %q, want s04 once, then s07 once in each of the 6 rounds", want.Reported)
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Errorf("second run:\n got %+v\nwant %+v", got, want)
	}
}
