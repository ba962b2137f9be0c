package control

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// ruleRate returns the rate of a stage's rule by ID (-1 when absent).
func ruleRate(s *stage.Stage, id string) float64 {
	for _, r := range s.Rules() {
		if r.ID == id {
			return r.Rate
		}
	}
	return -1
}

// TestDeregisterReleasesShare is the regression test for the share-leak:
// before the fix, a departed job's last allocation stayed recorded
// forever, so LastAllocation and the monitor kept reporting a grant for
// a job with no stages — and with no algorithm installed, nothing would
// ever redistribute it. The job's reservation is the operator's intent,
// not a share: it stays, and a stage of the job that registers again
// finds it.
func TestDeregisterReleasesShare(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}))
	s1, c1 := localStage("s1", "jobA", clk)
	s2, c2 := localStage("s2", "jobB", clk)
	if err := c.Register(s1.Info(), c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(s2.Info(), c2); err != nil {
		t.Fatal(err)
	}
	c.SetReservation("jobB", 6000)

	c.RunOnce()
	if alloc := c.LastAllocation(); alloc["jobA"] != 4000 || alloc["jobB"] != 4000 {
		t.Fatalf("initial allocation = %v", alloc)
	}

	if !c.Deregister("s2") {
		t.Fatal("Deregister(s2) = false")
	}
	alloc := c.LastAllocation()
	if _, leaked := alloc["jobB"]; leaked {
		t.Errorf("departed job still holds its share: %v", alloc)
	}
	for _, snap := range c.CollectAll() {
		if snap.JobID == "jobB" {
			t.Errorf("a job with no stage has a snapshot: %+v", snap)
		}
	}
	// The reservation outlives the departure: a stage of jobB that
	// registers again (a restarted process) is held to it.
	s2b, c2b := localStage("s2", "jobB", clk)
	if err := c.Register(s2b.Info(), c2b); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, snap := range c.CollectAll() {
		if snap.JobID == "jobB" {
			found = true
			if snap.Reservation != 6000 {
				t.Errorf("jobB's reservation after its stage came back: %+v, want 6000", snap)
			}
		}
	}
	if !found {
		t.Error("jobB has no snapshot after its stage came back")
	}
}

// TestEvictionReleasesDeadStageShare is the dead-stage regression:
// RunOnce splits a job's grant across all registered stages, so a stage
// whose link died would dilute its job's share for as long as it stayed
// registered — the live stage pinned at alloc/2. The round whose collect
// finds the link dead drops the stage before it allocates, so that very
// round's push divides by the surviving stage count.
func TestEvictionReleasesDeadStageShare(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}))
		live, liveConn := localStage("s1", "jobA", clk)
		deadStg, _ := localStage("s2", "jobA", clk)
		dead := failingConn(deadStg)
		if err := c.Register(live.Info(), liveConn); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(deadStg.Info(), dead); err != nil {
			t.Fatal(err)
		}

		c.RunOnce()
		if got := len(c.Stages()); got != 1 {
			t.Fatalf("dead stage not dropped: %d stages registered", got)
		}
		if got := ruleRate(live, ControlRuleID); got != 8000 {
			t.Errorf("in the round that dropped the dead stage, live stage rate = %v, want the full 8000", got)
		}
		select {
		case <-dead.Done():
		default:
			t.Error("the dead stage's handle is still open")
		}
	})
}

// TestWireFailureDropsAMemberARemoteErrorKeepsIt: a member whose
// exchange fails on the wire — its handle is dead for good — is reported
// once, in the round where it fails, and is gone from the registry
// before that round allocates, whether the collect or the push failed.
// A member whose stage refuses (a RemoteError) is reported each round
// it refuses and stays registered, and its job is allocated again once
// it answers.
func TestWireFailureDropsAMemberARemoteErrorKeepsIt(t *testing.T) {
	clk := clock.NewSim(epoch)
	reports := map[string]int{}
	c := New(clk, WithClusterLimit(9000), WithAlgorithm(StaticEqualShare{}),
		WithErrorHandler(func(id string, err error) { reports[id]++ }))
	var collectDown, refusing atomic.Bool
	wireStg, _ := localStage("s1", "jobA", clk)
	refusedStg, _ := localStage("s2", "jobB", clk)
	pushStg, _ := localStage("s3", "jobC", clk)
	for _, r := range []struct {
		stg *stage.Stage
		h   *rpcio.StageHandle
	}{
		{wireStg, flakyConn(wireStg, &collectDown)},
		{refusedStg, gatedHandle(refusedStg, func(_ []rpcio.StageOp, collect bool) error {
			if collect && refusing.Load() {
				return rpcio.RemoteError("injected refusal")
			}
			return nil
		})},
		// s3 registers at a third of the limit, not its job's allocation,
		// so the first round retunes it: the push whose wire fails.
		{pushStg, gatedHandle(pushStg, func(ops []rpcio.StageOp, _ bool) error {
			if len(ops) == 1 && ops[0].Kind == rpcio.OpSetRate {
				return errors.New("injected push failure")
			}
			return nil
		})},
	} {
		if err := c.Register(r.stg.Info(), r.h); err != nil {
			t.Fatal(err)
		}
	}

	collectDown.Store(true)
	refusing.Store(true)
	alloc := c.RunOnce()
	if _, ok := alloc["jobA"]; ok {
		t.Errorf("the round allocated to jobA, whose one stage it dropped: %v", alloc)
	}
	if _, ok := alloc["jobB"]; ok {
		t.Errorf("the round allocated to jobB, whose one stage refused its collect: %v", alloc)
	}
	if stages := c.Stages(); len(stages) != 1 || stages[0].StageID != "s2" {
		t.Fatalf("after the failing round: %v registered, want only s2 (its stage refused)", stages)
	}
	for i := 0; i < 2; i++ {
		c.RunOnce()
	}
	if want := map[string]int{"s1": 1, "s2": 3, "s3": 1}; !reflect.DeepEqual(reports, want) {
		t.Errorf("reports per stage after three rounds = %v, want %v", reports, want)
	}
	refusing.Store(false)
	if alloc := c.RunOnce(); alloc["jobB"] != 9000 {
		t.Errorf("once s2 answers, allocation = %v, want jobB at the whole 9000", alloc)
	}
}

// TestMonitorReadsDropADeadMember: CollectAll is how the monitor and
// the controller's report read the fleet. A read that finds a member's
// link dead reports it and drops it, as a round would, so the rounds
// after it neither report it again nor hold a share for it.
func TestMonitorReadsDropADeadMember(t *testing.T) {
	clk := clock.NewSim(epoch)
	reports := 0
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}),
		WithErrorHandler(func(string, error) { reports++ }))
	live, liveConn := localStage("s1", "jobA", clk)
	deadStg, _ := localStage("s2", "jobA", clk)
	if err := c.Register(live.Info(), liveConn); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(deadStg.Info(), failingConn(deadStg)); err != nil {
		t.Fatal(err)
	}
	snaps := c.CollectAll()
	if len(snaps) != 1 || snaps[0].Stages != 1 || snaps[0].FailedStages != 1 {
		t.Fatalf("the read: snapshots %+v, want jobA with one live and one failed stage", snaps)
	}
	if stages := c.Stages(); len(stages) != 1 || stages[0].StageID != "s1" {
		t.Fatalf("after the read: %v registered, want only s1", stages)
	}
	c.RunOnce()
	if reports != 1 {
		t.Errorf("the dead stage was reported %d times, want once", reports)
	}
	if got := ruleRate(live, ControlRuleID); got != 8000 {
		t.Errorf("live stage rate = %v, want the job's whole 8000", got)
	}
}

// gatedHandle reaches stg in process, every exchange passing gate
// first: the gate runs as the exchange is written, when a round starts
// it (the push in StageID order, a split collect chunk by chunk side by
// side), and an error refuses the exchange before it reaches the stage,
// which Finish then returns. A RemoteError is the stage's refusal and
// leaves the handle in service; any other error is a wire failure,
// which ends it.
func gatedHandle(stg *stage.Stage, gate rpcio.Fault) *rpcio.StageHandle {
	return rpcio.LocalStage(rpcio.NewStageService(stg), gate)
}

// flakyConn fails the wire under stg's first collect while down is set.
func flakyConn(stg *stage.Stage, down *atomic.Bool) *rpcio.StageHandle {
	return gatedHandle(stg, func(_ []rpcio.StageOp, collect bool) error {
		if collect && down.Load() {
			return errors.New("injected collect failure")
		}
		return nil
	})
}

// failingConn simulates a stage whose link dies: it accepts pushes (so
// it can register), and its first collect fails on the wire.
func failingConn(stg *stage.Stage) *rpcio.StageHandle {
	down := new(atomic.Bool)
	down.Store(true)
	return flakyConn(stg, down)
}

// refusingConn's stage refuses (a RemoteError) every exchange carrying
// an op refuse matches.
func refusingConn(stg *stage.Stage, refuse func(rpcio.StageOp) bool) *rpcio.StageHandle {
	return gatedHandle(stg, func(ops []rpcio.StageOp, _ bool) error {
		for _, op := range ops {
			if refuse(op) {
				return rpcio.RemoteError("injected op failure")
			}
		}
		return nil
	})
}

// setRateFailingConn collects fine but refuses rate retunes.
func setRateFailingConn(stg *stage.Stage) *rpcio.StageHandle {
	return refusingConn(stg, func(op rpcio.StageOp) bool { return op.Kind == rpcio.OpSetRate })
}

func TestCollectAllBoundedConcurrencyIsDeterministic(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	stages := make([]*stage.Stage, 0, 12)
	for i := 0; i < 12; i++ {
		id := string(rune('a' + i))
		stg, conn := localStage("s-"+id, "job-"+string(rune('A'+i%3)), clk)
		stages = append(stages, stg)
		if err := c.Register(stg.Info(), conn); err != nil {
			t.Fatal(err)
		}
	}
	// One stage degraded, one failing: the snapshot must carry both
	// facts, identically on every run.
	stages[5].SetDegraded(true)
	var first []JobSnapshot
	for run := 0; run < 5; run++ {
		snaps := c.CollectAll()
		if run == 0 {
			first = snaps
			continue
		}
		if !reflect.DeepEqual(first, snaps) {
			t.Fatalf("run %d diverged:\n%+v\nvs\n%+v", run, snaps, first)
		}
	}
	if len(first) != 3 {
		t.Fatalf("snapshots = %+v", first)
	}
	for _, s := range first {
		wantDegraded := s.JobID == "job-C" // stage index 5 -> job 5%3=2 -> C
		if s.Degraded != wantDegraded || (wantDegraded && s.DegradedStages != 1) {
			t.Errorf("degraded aggregation wrong: %+v", s)
		}
	}
}

func TestCollectAllCountsFailedStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk)
	okStg, ok1 := localStage("s1", "jobA", clk)
	deadStg, _ := localStage("s2", "jobA", clk)
	if err := c.Register(okStg.Info(), ok1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(deadStg.Info(), failingConn(deadStg)); err != nil {
		t.Fatal(err)
	}
	snaps := c.CollectAll()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[0].Stages != 1 || snaps[0].FailedStages != 1 {
		t.Errorf("partial snapshot = %+v, want Stages=1 FailedStages=1", snaps[0])
	}
}

func TestReRegistrationReplaysLastKnownRules(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithClusterLimit(6000), WithAlgorithm(StaticEqualShare{}))
	stg, conn := localStage("s1", "jobA", clk)
	if err := c.Register(stg.Info(), conn); err != nil {
		t.Fatal(err)
	}
	admin := policy.Rule{ID: "open-cap", Match: policy.Matcher{JobID: "jobA"}, Rate: 1000}
	if err := c.ApplyRuleToJob("jobA", admin); err != nil {
		t.Fatal(err)
	}
	cluster := policy.Rule{ID: "cluster-floor", Rate: 9000}
	if err := c.ApplyRuleCluster(cluster); err != nil {
		t.Fatal(err)
	}
	c.RunOnce() // records lastAlloc: jobA -> 6000

	// The stage restarts: a fresh Stage object with an empty rule set
	// re-registers under the same ID.
	fresh, freshConn := localStage("s1", "jobA", clk)
	if err := c.Register(fresh.Info(), freshConn); err != nil {
		t.Fatal(err)
	}
	if got := ruleRate(fresh, ControlRuleID); got != 6000 {
		t.Errorf("managed rule replayed at %v, want the frozen 6000 (not an equal-share reset)", got)
	}
	if got := ruleRate(fresh, "open-cap"); got != 1000 {
		t.Errorf("admin rule replayed at %v, want 1000", got)
	}
	if got := ruleRate(fresh, "cluster-floor"); got != 9000 {
		t.Errorf("cluster rule replayed at %v, want 9000", got)
	}
}

func TestRunOnceSurvivesPartialPushFailures(t *testing.T) {
	// A stage that answers collects but refuses rate pushes must not
	// abort the round for the others. It also must NOT be dropped: its
	// refusal is the stage's answer over a working link.
	clk := clock.NewSim(epoch)
	var mu sync.Mutex
	var pushErrs int
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}),
		WithErrorHandler(func(id string, err error) {
			mu.Lock()
			if id == "s2" {
				pushErrs++
			}
			mu.Unlock()
		}))
	live, liveConn := localStage("s1", "jobA", clk)
	pushDeadStg, _ := localStage("s2", "jobB", clk)
	pushDead := setRateFailingConn(pushDeadStg)
	// pushDead registers while it is the only job, so its managed queue
	// starts at the whole limit: every later round finds it off its
	// 4000 share and must retune it — the push that fails.
	if err := c.Register(pushDeadStg.Info(), pushDead); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(live.Info(), liveConn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.RunOnce()
	}
	if got := ruleRate(live, ControlRuleID); got != 4000 {
		t.Fatalf("live stage rate = %v, want 4000", got)
	}
	if got := len(c.Stages()); got != 2 {
		t.Errorf("a stage that refused its pushes was dropped: %d registered", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if pushErrs == 0 {
		t.Error("push failures were swallowed: onError never saw them")
	}
}

// TestPushesFollowTheLiveRegistryInStageIDOrder: pushes go out in
// StageID order — the shard's fan-out order, whatever jobs the stages
// serve — to the stages registered when the push is planned: one that
// joined while the round was collecting is counted in its job's split
// and pushed in its place.
func TestPushesFollowTheLiveRegistryInStageIDOrder(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}))
		var log []string
		stages := map[string]*stage.Stage{}
		// onCollect runs inside a stage's first collect.
		onCollect := map[string]func(){}
		handles := map[string]*rpcio.StageHandle{}
		// StageID order interleaves the jobs, and so does the push order.
		for id, job := range map[string]string{"s0": "jobB", "s1": "jobA", "s2": "jobB", "s3": "jobA"} {
			stg, _ := localStage(id, job, clk)
			stages[id] = stg
			handles[id] = gatedHandle(stg, func(ops []rpcio.StageOp, collect bool) error {
				if hook := onCollect[id]; collect && hook != nil {
					delete(onCollect, id)
					hook()
				}
				if len(ops) > 0 {
					log = append(log, id)
				}
				return nil
			})
		}
		join := func(id string) error { return c.Register(stages[id].Info(), handles[id]) }
		// s0 is the late joiner.
		onCollect["s3"] = func() {
			if err := join("s0"); err != nil {
				t.Error(err)
			}
		}
		for _, id := range []string{"s3", "s2", "s1"} {
			if err := join(id); err != nil {
				t.Fatal(err)
			}
		}
		log = nil // registration installed the managed rule; only the round's pushes count

		c.RunOnce()
		// The first entry is the late joiner's own registration exchange.
		if want := []string{"s0", "s0", "s1", "s2", "s3"}; !reflect.DeepEqual(log, want) {
			t.Errorf("exchanges with ops %v, want %v (pushes in StageID order, late joiner included)", log, want)
		}
		for id, want := range map[string]float64{"s1": 2000, "s3": 2000, "s0": 2000, "s2": 2000} {
			if got := ruleRate(stages[id], ControlRuleID); got != want {
				t.Errorf("stage %s rate = %v, want %v", id, got, want)
			}
		}

		// Steady state: the registry did not move, nothing needs a push.
		log = nil
		c.RunOnce()
		if len(log) != 0 {
			t.Errorf("steady round pushed to %v", log)
		}
		if rs, _ := c.LastRound(); rs.PushesSkipped != 4 || rs.PushCalls != 0 {
			t.Errorf("steady round: %d pushes, %d skipped, want 0/4", rs.PushCalls, rs.PushesSkipped)
		}
	})
}
