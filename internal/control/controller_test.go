package control

import (
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
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

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// localStage builds an in-process stage and a handle to it.
func localStage(id, job string, clk clock.Clock) (*stage.Stage, *rpcio.StageHandle) {
	stg := stage.New(stage.Info{StageID: id, JobID: job, Hostname: "n-" + id, User: "u"}, clk)
	return stg, loopbackHandle(stg)
}

// loopbackHandle reaches stg in process, through the frame transport
// and the delta protocol: how every in-process stage is registered.
func loopbackHandle(stg *stage.Stage) *rpcio.StageHandle {
	return rpcio.LocalStage(rpcio.NewStageService(stg), nil)
}

// TestJobCountsMatchBruteForce: over seeded register, deregister and
// re-register steps — a re-registration may move the stage to another
// job — Jobs() and the rate a just-registered stage starts at (an equal
// share of the cluster limit among the registered jobs) equal a
// reference recomputed from scratch after every step.
func TestJobCountsMatchBruteForce(t *testing.T) {
	const limit = 12000.0
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewSim(epoch)
		c := New(clk, WithClusterLimit(limit), WithAlgorithm(StaticEqualShare{}))
		ref := map[string]string{} // StageID -> JobID
		refJobs := func() []string {
			jobs := slices.Sorted(maps.Values(ref))
			return slices.Compact(jobs)
		}
		for step := 0; step < 300; step++ {
			id := fmt.Sprintf("s%d", rng.Intn(12))
			if _, ok := ref[id]; ok && rng.Intn(3) == 0 {
				if !c.Deregister(id) {
					t.Fatalf("seed %d step %d: Deregister(%s) = false", seed, step, id)
				}
				delete(ref, id)
			} else {
				stg, h := localStage(id, fmt.Sprintf("job%d", rng.Intn(5)), clk)
				if err := c.Register(stg.Info(), h); err != nil {
					t.Fatal(err)
				}
				ref[id] = stg.Info().JobID
				if got, want := ruleRate(stg, ControlRuleID), limit/float64(len(refJobs())); got != want {
					t.Fatalf("seed %d step %d: %s registered at %v, want %v", seed, step, id, got, want)
				}
			}
			if got, want := c.Jobs(), refJobs(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Jobs() = %v, want %v", seed, step, got, want)
			}
		}
	}
}

func TestRegisterAndJobGrouping(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	for _, s := range []struct{ id, job string }{
		{"s1", "jobA"}, {"s2", "jobA"}, // distributed job: 2 stages
		{"s3", "jobB"},
	} {
		stg, h := localStage(s.id, s.job, clk)
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := c.Jobs(); len(jobs) != 2 || jobs[0] != "jobA" || jobs[1] != "jobB" {
		t.Errorf("Jobs = %v", jobs)
	}
	if stages := c.Stages(); len(stages) != 3 {
		t.Errorf("Stages = %v", stages)
	}
}

func TestReRegistrationReplacesConnection(t *testing.T) {
	// Dependability (§VI): a stage that restarts re-registers under the
	// same ID; the controller adopts the new handle and closes the stale
	// one.
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(8000))
	c.SetReservation("jobA", 3000)
	oldStg, oldH := localStage("s1", "jobA", clk)
	if err := c.Register(oldStg.Info(), oldH); err != nil {
		t.Fatal(err)
	}
	stg, h := localStage("s1", "jobA", clk)
	if err := c.Register(stg.Info(), h); err != nil {
		t.Fatalf("re-registration rejected: %v", err)
	}
	if got := len(c.Stages()); got != 1 {
		t.Errorf("stages = %d, want 1 after re-registration", got)
	}
	if _, _, err := oldH.Exec(nil, nil); err == nil {
		t.Error("the replaced handle still answers: it was not closed")
	}

	// Re-registering the same handle keeps it open and keeps its member
	// record: once the rate is settled, a round finds it enforced and
	// skips the push.
	c.RunOnce()
	record := c.sh.members[0]
	if err := c.Register(stg.Info(), h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Exec(nil, nil); err != nil {
		t.Fatalf("re-registering the same handle closed it: %v", err)
	}
	c.RunOnce()
	if rs, _ := c.LastRound(); rs.PushesSkipped != 1 || rs.PushCalls != 0 {
		t.Errorf("round after re-registering the same handle: %d pushed, %d skipped; want 0/1",
			rs.PushCalls, rs.PushesSkipped)
	}
	if c.sh.members[0] != record {
		t.Error("re-registering the same handle dropped its member record")
	}
}

func TestDeregister(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(stg.Info(), conn); err != nil {
		t.Fatal(err)
	}
	if !c.Deregister("s1") {
		t.Error("Deregister returned false")
	}
	if c.Deregister("s1") {
		t.Error("double Deregister returned true")
	}
	if len(c.Jobs()) != 0 {
		t.Error("job still listed after deregistration")
	}
}

func TestApplyRuleToJobSplitsAcrossStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobA", clk)
	if err := c.Register(s1.Info(), c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(s2.Info(), c2); err != nil {
		t.Fatal(err)
	}
	rule := policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 1000}
	if err := c.ApplyRuleToJob("jobA", rule); err != nil {
		t.Fatal(err)
	}
	// Each of the two stages gets half the job's rate.
	for _, s := range []*stage.Stage{s1, s2} {
		rules := s.Rules()
		if len(rules) != 1 || rules[0].Rate != 500 {
			t.Errorf("stage rules = %+v, want rate 500", rules)
		}
	}
}

func TestApplyRuleToUnknownJobFails(t *testing.T) {
	c := New(clock.NewSim(epoch))
	if err := c.ApplyRuleToJob("ghost", policy.Rule{ID: "r", Rate: 10}); err == nil {
		t.Error("rule applied to unknown job")
	}
}

func TestApplyRuleToJobsGroupSplit(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobB", clk)
	if err := c.Register(s1.Info(), c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(s2.Info(), c2); err != nil {
		t.Fatal(err)
	}
	rule := policy.Rule{ID: "grp", Rate: 2000}
	if err := c.ApplyRuleToJobs([]string{"jobA", "jobB"}, rule); err != nil {
		t.Fatal(err)
	}
	if s1.Rules()[0].Rate != 1000 || s2.Rules()[0].Rate != 1000 {
		t.Errorf("group split = %v/%v, want 1000/1000", s1.Rules()[0].Rate, s2.Rules()[0].Rate)
	}
	if err := c.ApplyRuleToJobs(nil, rule); err == nil {
		t.Error("empty group accepted")
	}
}

func TestApplyRuleClusterWide(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	var stages []*stage.Stage
	for _, s := range []struct{ id, job string }{{"s1", "jobA"}, {"s2", "jobB"}, {"s3", "jobB"}} {
		stg, h := localStage(s.id, s.job, clk)
		stages = append(stages, stg)
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ApplyRuleCluster(policy.Rule{ID: "cl", Rate: 3000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range stages {
		if s.Rules()[0].Rate != 1000 {
			t.Errorf("cluster split rate = %v, want 1000", s.Rules()[0].Rate)
		}
	}
	empty := New(clk)
	if err := empty.ApplyRuleCluster(policy.Rule{ID: "cl", Rate: 1}); err == nil {
		t.Error("cluster rule accepted with no stages")
	}
}

func TestRegisterInstallsControlQueueWhenAlgorithmActive(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(300000))
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(stg.Info(), conn); err != nil {
		t.Fatal(err)
	}
	rules := stg.Rules()
	if len(rules) != 1 || rules[0].ID != ControlRuleID {
		t.Fatalf("rules after register = %+v", rules)
	}
	if rules[0].Match.JobID != "jobA" {
		t.Errorf("control rule job scope = %q", rules[0].Match.JobID)
	}
}

func TestFeedbackLoopAllocatesByDemand(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(1000))
	c.SetReservation("jobA", 400)
	c.SetReservation("jobB", 600)
	sA, cA := localStage("s1", "jobA", clk)
	sB, cB := localStage("s2", "jobB", clk)
	if err := c.Register(sA.Info(), cA); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(sB.Info(), cB); err != nil {
		t.Fatal(err)
	}

	// Generate demand: jobA wants 2000 ops/s, jobB wants 100 ops/s.
	reqA := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobA"}
	reqB := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobB"}
	sA.Offer(reqA, 2000, time.Second)
	sB.Offer(reqB, 100, time.Second)
	clk.Advance(time.Second)
	sA.Offer(reqA, 0, time.Second)
	sB.Offer(reqB, 0, time.Second)

	alloc := c.RunOnce()
	if alloc == nil {
		t.Fatal("RunOnce returned nil with algorithm installed")
	}
	// jobB is under its reservation: capped near demand, floored at
	// reservation. jobA gets the leftover (bounded by the limit).
	if alloc["jobA"] < 700 {
		t.Errorf("jobA = %v, want most of the limit", alloc["jobA"])
	}
	if alloc["jobB"] < 600-1 {
		t.Errorf("jobB = %v, must keep its reservation floor", alloc["jobB"])
	}
	// The stage buckets must now carry the allocation.
	got := sA.Rules()[0].Rate
	if got != alloc["jobA"] {
		t.Errorf("stage rate = %v, allocation = %v", got, alloc["jobA"])
	}
}

func TestRunOnceWithoutAlgorithmIsNoop(t *testing.T) {
	c := New(clock.NewSim(epoch))
	if alloc := c.RunOnce(); alloc != nil {
		t.Errorf("RunOnce = %v, want nil", alloc)
	}
}

func TestCollectAllAggregatesPerJob(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(1000))
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobA", clk)
	if err := c.Register(s1.Info(), c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(s2.Info(), c2); err != nil {
		t.Fatal(err)
	}
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "jobA"}
	s1.Offer(req, 100, time.Second)
	s2.Offer(req, 200, time.Second)
	clk.Advance(time.Second)
	s1.Offer(req, 0, time.Second)
	s2.Offer(req, 0, time.Second)
	snaps := c.CollectAll()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[0].Stages != 2 {
		t.Errorf("stages = %d, want 2", snaps[0].Stages)
	}
	if snaps[0].Demand != 300 {
		t.Errorf("aggregated demand = %v, want 300", snaps[0].Demand)
	}
}

func TestCollectSkipsDeadStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	var reported []string
	c := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(100),
		WithErrorHandler(func(id string, err error) { reported = append(reported, id) }),
	)
	stg, _ := localStage("dead", "jobX", clk)
	if err := c.Register(stg.Info(), failingConn(stg)); err != nil {
		t.Fatal(err)
	}
	liveStg, live := localStage("live", "jobY", clk)
	if err := c.Register(liveStg.Info(), live); err != nil {
		t.Fatal(err)
	}
	snaps := c.CollectAll()
	if len(snaps) != 1 || snaps[0].JobID != "jobY" {
		t.Errorf("snapshots = %+v, want only jobY", snaps)
	}
	if len(reported) != 1 || reported[0] != "dead" {
		t.Errorf("error handler saw %v", reported)
	}
}

func TestRunLoopWithSimClock(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(800))
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(stg.Info(), conn); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	defer c.Stop()
	// Let the loop goroutine park on the clock, then fire two rounds.
	for i := 0; i < 2; i++ {
		clk.BlockUntil(1)
		clk.Advance(time.Second)
	}
	// After at least one round, the single job owns the full limit.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		if rules := stg.Rules(); len(rules) == 1 && rules[0].Rate == 800 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("rate never converged: %+v", stg.Rules())
		}
		time.Sleep(time.Millisecond)
	}
	alloc := c.LastAllocation()
	if alloc["jobA"] != 800 {
		t.Errorf("LastAllocation = %v", alloc)
	}
}

func TestStopIdempotent(t *testing.T) {
	c := New(clock.NewSim(epoch))
	c.Stop() // never started: must not panic
	c.Run(time.Second)
	c.Stop()
	c.Stop()
}

func TestEndToEndOverNetwork(t *testing.T) {
	// Full integration: controller serves a registrar; a stage registers
	// over TCP and serves its control service on that connection; the
	// feedback loop then drives the stage's rates through it.
	// The stage leaves by closing that connection, which the next round
	// takes as its departure, no error.
	clk := clock.NewReal()
	var errs atomic.Int32
	ctl := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(5000),
		WithErrorHandler(func(string, error) { errs.Add(1) }))
	// The loop runs before the registrar serves, and a registration is
	// answered with its period; its first round is an hour away.
	ctl.Run(time.Hour)
	defer ctl.Stop()
	srv, err := ctl.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stg := stage.New(stage.Info{StageID: "net-s1", JobID: "net-job", Hostname: "h", PID: 1, User: "u"}, clk)
	cc, err := rpcio.RegisterWithController(srv.Addr(), rpcio.NewStageService(stg))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if got := cc.Link().Period; got != time.Hour {
		t.Errorf("the registration's answer carried period %v, want the loop's hour", got)
	}
	// Registration installs the control queue over the stage's
	// connection before the registrar answers.
	if len(stg.Rules()) == 0 {
		t.Fatal("control rule never arrived over RPC")
	}
	if ctl.Jobs()[0] != "net-job" {
		t.Errorf("jobs = %v", ctl.Jobs())
	}

	alloc := ctl.RunOnce()
	if alloc["net-job"] != 5000 {
		t.Errorf("allocation = %v, want net-job:5000", alloc)
	}
	if got := stg.Rules()[0].Rate; got != 5000 {
		t.Errorf("stage rate over RPC = %v, want 5000", got)
	}

	cc.Close()
	ctl.RunOnce()
	if jobs := ctl.Jobs(); len(jobs) != 0 {
		t.Fatalf("jobs after the stage hung up and a round ran = %v, want none", jobs)
	}
	if rs, _ := ctl.LastRound(); rs.CollectFailures != 0 || errs.Load() != 0 {
		t.Errorf("the departure counted %d collect failures and reached the error handler %d times, want neither",
			rs.CollectFailures, errs.Load())
	}
}

// TestRegistrationsOutnumberTheRegistrarsConnectionBound: the registrar
// serves at most 128 connections at once, and a registration's
// connection becomes the controller's handle on the stage, leaving that
// bound. So 300 stages register one after another, each within its
// call deadline (a registrar that kept the slot would leave the 129th
// unanswered until that deadline failed it), and the next round reaches
// all of them.
func TestRegistrationsOutnumberTheRegistrarsConnectionBound(t *testing.T) {
	clk := clock.NewReal()
	ctl := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(300_000))
	srv, err := ctl.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A registrar that never gave a slot back would park its accept
		// loop for good, and its stop with it.
		stopped := make(chan struct{})
		go func() {
			srv.Close()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Error("the registrar's stop hung: its accept loop waits for a connection slot")
		}
	}()

	const stages = 300
	conns := make([]*rpcio.ControllerConn, 0, stages)
	defer func() {
		for _, cc := range conns {
			cc.Close()
		}
	}()
	for i := 0; i < stages; i++ {
		stg := stage.New(stage.Info{StageID: fmt.Sprintf("s%03d", i), JobID: fmt.Sprintf("job%02d", i%16)}, clk)
		cc, err := rpcio.RegisterWithController(srv.Addr(), rpcio.NewStageService(stg))
		if err != nil {
			t.Fatalf("registration %d of %d: %v", i+1, stages, err)
		}
		conns = append(conns, cc)
	}
	if got := len(ctl.Stages()); got != stages {
		t.Fatalf("controller holds %d stages, want %d", got, stages)
	}
	ctl.RunOnce()
	if rs, _ := ctl.LastRound(); rs.CollectFailures != 0 || rs.CollectCalls != stages {
		t.Errorf("round after registration: %d collects, %d failed; want %d, none failed",
			rs.CollectCalls, rs.CollectFailures, stages)
	}
}

func TestDependabilityStageDiesAndReconnects(t *testing.T) {
	// Full dependability round trip over real RPC: a stage dies mid-run
	// (connection refused), the loop keeps serving the healthy stage,
	// and the dead stage recovers by re-registering.
	clk := clock.NewReal()
	var errCount int
	var errMu sync.Mutex
	ctl := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(8000),
		WithErrorHandler(func(id string, err error) {
			errMu.Lock()
			errCount++
			errMu.Unlock()
		}))

	// Healthy stage, local transport.
	healthy, healthyConn := localStage("healthy", "jobH", clk)
	if err := ctl.Register(healthy.Info(), healthyConn); err != nil {
		t.Fatal(err)
	}

	// Fragile stage over TCP.
	fragile := stage.New(stage.Info{StageID: "fragile", JobID: "jobF"}, clk)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := rpcio.ServeStage(l, fragile)
	h, err := rpcio.DialStage(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Register(fragile.Info(), h); err != nil {
		t.Fatal(err)
	}

	// Both healthy: allocation covers both jobs.
	if alloc := ctl.RunOnce(); len(alloc) != 2 {
		t.Fatalf("allocation = %v", alloc)
	}

	// Kill the fragile stage's server and connection.
	stop()
	h.Close()

	// The loop must keep working for the healthy job and report errors
	// for the dead one.
	alloc := ctl.RunOnce()
	if alloc["jobH"] != 8000 {
		t.Errorf("healthy job starved after peer death: %v", alloc)
	}
	errMu.Lock()
	sawErrors := errCount > 0
	errMu.Unlock()
	if !sawErrors {
		t.Error("no stage errors reported for the dead stage")
	}

	// The stage restarts and re-registers under the same ID.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop2 := rpcio.ServeStage(l2, fragile)
	defer stop2()
	h2, err := rpcio.DialStage(l2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Register(fragile.Info(), h2); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	alloc = ctl.RunOnce()
	if alloc["jobF"] != 4000 || alloc["jobH"] != 4000 {
		t.Errorf("post-recovery allocation = %v", alloc)
	}
	_ = healthy
}

// TestSteadyRoundLeavesLocalStageUntouched: probe-and-skip covers
// in-process stages, reached over in-memory conns, and the steady collects
// themselves touch nothing. At a fixed allocation, rounds after the first
// push nothing, so the stage's rule snapshot — and with it the
// quiescence proof — survives the control interval instead of being
// republished by a same-rate SetRate.
func TestSteadyRoundLeavesLocalStageUntouched(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(8000))
		c.SetReservation("jobA", 3000)
		stg, conn := localStage("s1", "jobA", clk)
		if err := c.Register(stg.Info(), conn); err != nil {
			t.Fatal(err)
		}
		c.RunOnce() // retunes the registration-time equal share to the reservation
		if got := ruleRate(stg, ControlRuleID); got != 3000 {
			t.Fatalf("rate after first round = %v, want 3000", got)
		}
		var st stage.Stats
		token := stg.CollectQuietInto(&st)
		if token == 0 {
			t.Fatal("idle stage produced no quiescence token")
		}
		for round := 2; round <= 3; round++ {
			c.RunOnce()
			rs, _ := c.LastRound()
			if rs.PushesSkipped != 1 || rs.PushCalls != 0 {
				t.Errorf("round %d: PushesSkipped=%d PushCalls=%d, want 1/0", round, rs.PushesSkipped, rs.PushCalls)
			}
			if !stg.QuietSince(token) {
				t.Errorf("round %d republished the stage's rule snapshot", round)
			}
		}
	})
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// listenCounting listens on a loopback port and counts what it accepts.
func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: l}
}

// TestRegistrarOverFrames drives the registration endpoint end to end
// over the frame codec: a registration is one connection, which the
// stage dials and the controller installs the managed rule plus the
// replayed administrator rules over, in one batch, without dialing the
// stage; and the stage's hang-up removes it at the next round.
func TestRegistrarOverFrames(t *testing.T) {
	clk := clock.NewReal()
	ctl := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(5000))
	registrar := listenCounting(t)
	srv := ctl.serveOn(registrar)
	defer srv.Close()

	info := stage.Info{StageID: "reg-s1", JobID: "reg-job", Hostname: "h", PID: 1, User: "u"}
	// serve starts a stage with an admin listener of its own, as
	// DataPlane.Serve does, and registers it.
	serve := func() (*stage.Stage, *rpcio.StageService, *countingListener, func()) {
		stg := stage.New(info, clk)
		svc := rpcio.NewStageService(stg)
		admin := listenCounting(t)
		stopAdmin := rpcio.ServeStageService(admin, svc)
		cc, err := rpcio.RegisterWithController(srv.Addr(), svc)
		if err != nil {
			stopAdmin()
			t.Fatal(err)
		}
		return stg, svc, admin, func() {
			cc.Close()
			stopAdmin()
		}
	}

	_, _, _, stop := serve()
	// Record administrator intent, then restart the stage: the fresh
	// registration must replay it together with the managed rule.
	if err := ctl.ApplyRuleToJob("reg-job", policy.Rule{ID: "open-cap", Rate: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.ApplyRuleCluster(policy.Rule{ID: "floor", Rate: 9000}); err != nil {
		t.Fatal(err)
	}
	stop()
	before := registrar.accepted.Load()
	fresh, svc, admin, stop := serve()
	// The register exchange returns only after the controller installed
	// the rules over the stage's connection, so there is nothing to wait
	// for.
	for id, want := range map[string]float64{ControlRuleID: 5000, "open-cap": 1000, "floor": 9000} {
		if got := ruleRate(fresh, id); got != want {
			t.Errorf("rule %s at %v after re-registration, want %v", id, got, want)
		}
	}
	if served := svc.Served(); served.Calls != 1 || served.BatchedOps != 3 {
		t.Errorf("registration cost %d calls / %d ops, want one batch of 3", served.Calls, served.BatchedOps)
	}
	if n := admin.accepted.Load(); n != 0 {
		t.Errorf("the stage's admin listener accepted %d connections during registration, want 0", n)
	}
	if n := registrar.accepted.Load() - before; n != 1 {
		t.Errorf("the registrar accepted %d connections for one registration, want 1", n)
	}

	stop()
	ctl.RunOnce()
	if stages := ctl.Stages(); len(stages) != 0 {
		t.Errorf("stages after the stage hung up and a round ran = %v", stages)
	}
}
