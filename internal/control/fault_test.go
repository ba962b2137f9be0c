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
// before the fix, a departed job's last allocation (and reservation)
// stayed recorded forever, so LastAllocation and the monitor kept
// reporting a grant for a job with no stages — and with no algorithm
// installed, nothing would ever redistribute it.
func TestDeregisterReleasesShare(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}))
	_, c1 := localStage("s1", "jobA", clk)
	_, c2 := localStage("s2", "jobB", clk)
	if err := c.Register(c1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(c2); err != nil {
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
	// The reservation must not outlive the job either: if jobB's ID is
	// recycled later, the new job starts clean.
	_, c2b := localStage("s2", "jobB", clk)
	if err := c.Register(c2b); err != nil {
		t.Fatal(err)
	}
	for _, snap := range c.CollectAll() {
		if snap.JobID == "jobB" && snap.Reservation != 0 {
			t.Errorf("reservation leaked across job lifetimes: %+v", snap)
		}
	}
}

// TestEvictionReleasesDeadStageShare is the eviction regression: RunOnce
// splits a job's grant across all registered stages, so without
// mark-sweep eviction a crashed stage dilutes its job's share forever —
// the live stage is pinned at alloc/2.
func TestEvictionReleasesDeadStageShare(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}), WithEvictAfter(2))
		live, liveConn := localStage("s1", "jobA", clk)
		deadStg, _ := localStage("s2", "jobA", clk)
		dead := failingConn(deadStg)
		if err := c.Register(liveConn); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(dead); err != nil {
			t.Fatal(err)
		}

		c.RunOnce()
		if got := ruleRate(live, ControlRuleID); got != 4000 {
			t.Fatalf("with the dead stage registered, live stage rate = %v, want 4000", got)
		}
		// Round 2 reaches the miss threshold and sweeps; the same round's
		// push already divides by the surviving stage count.
		c.RunOnce()
		if got := len(c.Stages()); got != 1 {
			t.Fatalf("dead stage not evicted: %d stages registered", got)
		}
		if got := ruleRate(live, ControlRuleID); got != 8000 {
			t.Errorf("after eviction, live stage rate = %v, want the full 8000", got)
		}
	})
}

func TestEvictionDisabledByDefault(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}))
	deadStg, _ := localStage("s1", "jobA", clk)
	if err := c.Register(failingConn(deadStg)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.RunOnce()
	}
	if got := len(c.Stages()); got != 1 {
		t.Errorf("stage evicted with eviction disabled: %d stages", got)
	}
}

func TestEvictionReportsAndRecoversOnSuccess(t *testing.T) {
	clk := clock.NewSim(epoch)
	var mu sync.Mutex
	var evicted []string
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}), WithEvictAfter(3),
		WithErrorHandler(func(id string, err error) {
			if errors.Is(err, ErrEvicted) {
				mu.Lock()
				evicted = append(evicted, id)
				mu.Unlock()
			}
		}))
	stg, _ := localStage("s1", "jobA", clk)
	var down atomic.Bool
	if err := c.Register(flakyConn(stg, &down)); err != nil {
		t.Fatal(err)
	}

	// Two misses, then a success: the mark must clear.
	down.Store(true)
	c.RunOnce()
	c.RunOnce()
	down.Store(false)
	c.RunOnce()
	down.Store(true)
	c.RunOnce()
	c.RunOnce()
	mu.Lock()
	n := len(evicted)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("stage evicted after interleaved successes: %v", evicted)
	}
	c.RunOnce() // third consecutive miss -> sweep
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != "s1" {
		t.Errorf("evicted = %v, want [s1]", evicted)
	}
}

// gatedConn wraps a connection with a gate that runs in Start, in the
// order a round starts its exchanges, and may fail the exchange before
// it reaches the stage: Finish then returns the gate's error, as it
// would a lost round trip. Only the goroutine between Start and Finish
// touches gated.
type gatedConn struct {
	StageConn
	gate  func(ops []rpcio.StageOp, collect bool) error
	gated error
}

func (g *gatedConn) Start(ops []rpcio.StageOp, dst *stage.Stats, held bool) {
	if g.gated = g.gate(ops, dst != nil); g.gated == nil {
		g.StageConn.Start(ops, dst, held)
	}
}

func (g *gatedConn) Finish() ([]rpcio.OpResult, bool, error) {
	if err := g.gated; err != nil {
		g.gated = nil
		return nil, false, err
	}
	return g.StageConn.Finish()
}

// flakyConn fails every collect on stg while down is set.
func flakyConn(stg *stage.Stage, down *atomic.Bool) *gatedConn {
	return &gatedConn{StageConn: loopbackConn(stg), gate: func(_ []rpcio.StageOp, collect bool) error {
		if collect && down.Load() {
			return errors.New("injected collect failure")
		}
		return nil
	}}
}

// failingConn simulates a dead stage: it accepts pushes (so it can
// register) but never answers a collect.
func failingConn(stg *stage.Stage) *gatedConn {
	down := new(atomic.Bool)
	down.Store(true)
	return flakyConn(stg, down)
}

// refusingConn fails every exchange carrying an op refuse matches.
func refusingConn(stg *stage.Stage, refuse func(rpcio.StageOp) bool) *gatedConn {
	return &gatedConn{StageConn: loopbackConn(stg), gate: func(ops []rpcio.StageOp, _ bool) error {
		for _, op := range ops {
			if refuse(op) {
				return errors.New("injected op failure")
			}
		}
		return nil
	}}
}

// setRateFailingConn collects fine but refuses rate retunes.
func setRateFailingConn(stg *stage.Stage) *gatedConn {
	return refusingConn(stg, func(op rpcio.StageOp) bool { return op.Kind == rpcio.OpSetRate })
}

func TestCollectAllBoundedConcurrencyIsDeterministic(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithPushConcurrency(4))
	stages := make([]*stage.Stage, 0, 12)
	for i := 0; i < 12; i++ {
		id := string(rune('a' + i))
		stg, conn := localStage("s-"+id, "job-"+string(rune('A'+i%3)), clk)
		stages = append(stages, stg)
		if err := c.Register(conn); err != nil {
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
	_, ok1 := localStage("s1", "jobA", clk)
	deadStg, _ := localStage("s2", "jobA", clk)
	if err := c.Register(ok1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(failingConn(deadStg)); err != nil {
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
	_, conn := localStage("s1", "jobA", clk)
	if err := c.Register(conn); err != nil {
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
	if err := c.Register(freshConn); err != nil {
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
	// A stage that answers collects but fails rate pushes must not abort
	// the round for the others. It also must NOT be evicted: it still
	// answers Collect, so it is alive — each successful collect clears
	// the miss its failed push recorded.
	clk := clock.NewSim(epoch)
	var mu sync.Mutex
	var pushErrs int
	c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}), WithEvictAfter(2),
		WithErrorHandler(func(id string, err error) {
			mu.Lock()
			if id == "s2" && !errors.Is(err, ErrEvicted) {
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
	if err := c.Register(pushDead); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(liveConn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.RunOnce()
	}
	if got := ruleRate(live, ControlRuleID); got != 4000 {
		t.Fatalf("live stage rate = %v, want 4000", got)
	}
	if got := len(c.Stages()); got != 2 {
		t.Errorf("collect-alive stage was evicted: %d registered", got)
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
		c := New(clk, WithClusterLimit(8000), WithAlgorithm(StaticEqualShare{}), WithPushConcurrency(1))
		var log []string
		stages := map[string]*stage.Stage{}
		// onCollect runs inside a stage's first collect.
		onCollect := map[string]func(){}
		conn := func(id, job string) *gatedConn {
			stg, _ := localStage(id, job, clk)
			stages[id] = stg
			return &gatedConn{StageConn: loopbackConn(stg), gate: func(ops []rpcio.StageOp, collect bool) error {
				if hook := onCollect[id]; collect && hook != nil {
					delete(onCollect, id)
					hook()
				}
				if len(ops) > 0 {
					log = append(log, id)
				}
				return nil
			}}
		}
		// StageID order interleaves the jobs, and so does the push order.
		a1, b2, a3 := conn("s1", "jobA"), conn("s2", "jobB"), conn("s3", "jobA")
		late := conn("s0", "jobB")
		onCollect["s3"] = func() {
			if err := c.Register(late); err != nil {
				t.Error(err)
			}
		}
		for _, pc := range []*gatedConn{a3, b2, a1} {
			if err := c.Register(pc); err != nil {
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
