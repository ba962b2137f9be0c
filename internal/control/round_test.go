package control

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// shardOver registers each stage's identity and handle with a
// controller built from opts (no algorithm: registering touches no
// stage) and returns the shard it builds over them — the unit the round
// loop drives.
func shardOver(t *testing.T, clk clock.Clock, opts []Option, stages ...member) *shard {
	t.Helper()
	c := New(clk, opts...)
	for _, m := range stages {
		if err := c.Register(m.info, m.h); err != nil {
			t.Fatal(err)
		}
	}
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	return c.reshard()
}

// shardFixture builds a shard over four local stages: s1/s2 serve job1,
// s3/s4 serve job2.
func shardFixture(t *testing.T, clk clock.Clock) (*shard, map[string]*stage.Stage) {
	t.Helper()
	stages := make(map[string]*stage.Stage)
	var regs []member
	for id, job := range map[string]string{"s1": "job1", "s2": "job1", "s3": "job2", "s4": "job2"} {
		stg, h := localStage(id, job, clk)
		stages[id] = stg
		regs = append(regs, member{info: stg.Info(), h: h})
	}
	return shardOver(t, clk, nil, regs...), stages
}

// offerTo feeds demand through a stage's managed queue over one
// simulated second.
func offerTo(clk *clock.Sim, stages map[string]*stage.Stage, perStage map[string]float64) {
	for id, n := range perStage {
		s := stages[id]
		s.Offer(&posix.Request{Op: posix.OpOpen, Path: "/f", JobID: s.Info().JobID}, n, time.Second)
	}
	clk.Advance(time.Second)
	for id := range perStage {
		s := stages[id]
		s.Offer(&posix.Request{Op: posix.OpOpen, Path: "/f", JobID: s.Info().JobID}, 0, time.Second)
	}
}

func TestAggregatorRoundPushesAndMerges(t *testing.T) {
	clk := clock.NewSim(epoch)
	sh, stages := shardFixture(t, clk)

	// Push: each job's allocation is split equally among its members,
	// and the managed rule is installed where it did not exist.
	alloc := map[string]float64{"job1": 1000, "job2": 2000}
	var rs RoundStats
	sh.push(alloc, &rs)
	wantRate := map[string]float64{"s1": 500, "s2": 500, "s3": 1000, "s4": 1000}
	for id, want := range wantRate {
		rules := stages[id].Rules()
		if len(rules) != 1 || rules[0].ID != ControlRuleID || rules[0].Rate != want {
			t.Errorf("%s rules = %+v, want managed rule at %v", id, rules, want)
		}
		if job := stages[id].Info().JobID; rules[0].Match.JobID != job {
			t.Errorf("%s managed rule scoped to %q, want %q", id, rules[0].Match.JobID, job)
		}
	}

	// Collect: per-member statistics merge into one row per job.
	offerTo(clk, stages, map[string]float64{"s1": 100, "s2": 200, "s3": 40, "s4": 60})
	rs = RoundStats{}
	sh.collect(&rs)
	rows := sh.rows
	if rs.Stages != 4 || rs.CollectCalls != 4 {
		t.Errorf("collect covered %d stages in %d calls, want 4 in 4", rs.Stages, rs.CollectCalls)
	}
	if len(rows) != 2 || rows[0].JobID != "job1" || rows[1].JobID != "job2" {
		t.Fatalf("rows = %+v, want sorted [job1 job2]", rows)
	}
	if j1 := rows[0]; j1.Stages != 2 || j1.Demand != 300 {
		t.Errorf("job1 row = %+v, want 2 stages / demand 300", j1)
	}
	if j2 := rows[1]; j2.Stages != 2 || j2.Demand != 100 {
		t.Errorf("job2 row = %+v, want 2 stages / demand 100", j2)
	}
}

func TestAggregatorReinstallsLostManagedRule(t *testing.T) {
	clk := clock.NewSim(epoch)
	sh, stages := shardFixture(t, clk)
	alloc := map[string]float64{"job1": 1000, "job2": 2000}
	var rs RoundStats
	sh.push(alloc, &rs)
	// s2 restarts: its managed queue vanishes. The next push must bring
	// it back at the fresh rate.
	stages["s2"].RemoveRule(ControlRuleID)
	sh.push(alloc, &rs)
	rules := stages["s2"].Rules()
	if len(rules) != 1 || rules[0].ID != ControlRuleID || rules[0].Rate != 500 {
		t.Fatalf("s2 rules after reinstall = %+v, want managed rule at 500", rules)
	}
}

func TestAggregatorReportsFailedStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	live, h := localStage("s1", "job1", clk)
	dead, _ := localStage("s2", "job1", clk)
	sh := shardOver(t, clk, nil, member{info: live.Info(), h: h}, member{info: dead.Info(), h: failingConn(dead)})

	// A member failure never fails the round: it is counted.
	var rs RoundStats
	sh.push(map[string]float64{"job1": 2000}, &rs)
	sh.collect(&rs)
	rows := sh.rows
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if row := rows[0]; row.Stages != 1 || row.FailedStages != 1 {
		t.Errorf("row = %+v, want 1 live / 1 failed", row)
	}
	if rs.CollectFailures != 1 {
		t.Errorf("CollectFailures = %d, want 1", rs.CollectFailures)
	}
}

// TestAggregatorQuiescentRoundTouchesNothing proves the shard fast path
// through the one Exec contract: once every member is quiet, a collect
// round re-materializes no slot and re-folds no row. The proof is a
// poison: a member slot is scribbled on between rounds, and a quiescent
// round must neither repair it (that would be a re-materialization) nor
// let it leak into the reply (that would be a re-fold). Traffic on one
// member then rewrites exactly that member's slot and rebuilds the rows.
func TestAggregatorQuiescentRoundTouchesNothing(t *testing.T) {
	clk := clock.NewSim(epoch)
	stages := make(map[string]*stage.Stage)
	var regs []member
	for _, id := range []string{"s1", "s2"} {
		stg, h := localStage(id, "job1", clk)
		stages[id] = stg
		regs = append(regs, member{info: stg.Info(), h: h})
	}
	sh := shardOver(t, clk, nil, regs...)
	// The rows are the shard's scratch: copied, so a round's answer can
	// be held against the next one's.
	collect := func() []JobSnapshot {
		var rs RoundStats
		sh.collect(&rs)
		return slices.Clone(sh.rows)
	}
	var rs RoundStats
	sh.push(map[string]float64{"job1": 2000}, &rs) // install
	collect()                                      // first (full) collect
	offerTo(clk, stages, map[string]float64{"s1": 100, "s2": 50})
	collect()
	clk.Advance(5 * time.Second) // rates decay to zero: the fleet goes quiet
	collect()
	settled := collect()

	const poison = 12345.5
	members := sh.members
	members[0].stats.Queues[0].DemandRate = poison
	quiet := collect()
	if got := members[0].stats.Queues[0].DemandRate; got != poison {
		t.Errorf("quiescent round re-materialized member 0's slot (DemandRate %v)", got)
	}
	if len(quiet) != 1 || quiet[0] != settled[0] {
		t.Errorf("quiescent round re-folded: rows %+v, want %+v", quiet, settled)
	}
	for i, m := range members {
		if m.changed {
			t.Errorf("member %d reported a change in a quiescent round", i)
		}
	}

	// Traffic on s2 only: its slot is rewritten and the rows rebuild
	// (reading member 0's still-poisoned slot, which proves s1 was again
	// left alone).
	offerTo(clk, stages, map[string]float64{"s2": 70})
	busy := collect()
	if members[0].changed || !members[1].changed {
		t.Errorf("changed = %v/%v, want only member 1", members[0].changed, members[1].changed)
	}
	if want := poison + 70; busy[0].Demand != want {
		t.Errorf("rebuilt demand = %v, want %v", busy[0].Demand, want)
	}
}

// TestAggregatorSlotSurvivesForeignCollector: a member's handle may
// have a second collector — a stage registered with two controllers,
// or probed by an operator's tool. The foreign collect consumes the
// "changed" signal and moves the handle's acknowledgment to another
// buffer, so a delta merged into the slot would leave it stale; the
// handle must notice that its last fill went elsewhere and rewrite the
// slot from a full snapshot.
func TestAggregatorSlotSurvivesForeignCollector(t *testing.T) {
	clk := clock.NewSim(epoch)
	stg, h := localStage("s1", "job1", clk)
	sh := shardOver(t, clk, nil, member{info: stg.Info(), h: h})
	var rs RoundStats
	collect := func() { sh.collect(&rs) }
	sh.push(map[string]float64{"job1": 1000}, &rs)
	collect()
	collect() // the slot is now the handle's merged snapshot, and quiet

	// Traffic, then quiet again — and the foreign collector sees the new
	// totals first.
	offerTo(clk, map[string]*stage.Stage{"s1": stg}, map[string]float64{"s1": 100})
	clk.Advance(5 * time.Second)
	var foreign stage.Stats
	if _, _, err := h.Exec(nil, &foreign); err != nil {
		t.Fatal(err)
	}
	if foreign.Queues[0].TotalDemand != 100 {
		t.Fatalf("foreign collect saw TotalDemand %d, want 100", foreign.Queues[0].TotalDemand)
	}
	collect()
	if got := sh.members[0].stats.Queues[0].TotalDemand; got != 100 {
		t.Errorf("shard slot stale after a foreign collect: TotalDemand %d, want 100", got)
	}
}

// TestShardsNeedNoLockOfTheirOwn backs the claim on the shard type: the
// loop, the monitor's read and a churning registry run side by side —
// the shard rebuilt and replaced under them — and the race detector
// must stay silent with roundMu as the only lock a shard is ever
// reached under.
func TestShardsNeedNoLockOfTheirOwn(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000))
	stages := make([]*stage.Stage, 6)
	for i := range stages {
		var h *rpcio.StageHandle
		stages[i], h = localStage(fmt.Sprintf("s%d", i), fmt.Sprintf("job%d", i%2), clk)
		if err := c.Register(stages[i].Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, body := range []func(i int){
		func(int) { c.RunOnce() },
		func(int) { c.CollectAll() },
		func(int) { c.LastRound() },
		func(i int) {
			// Deregister closes the handle: a stage comes back on a
			// fresh one, as a restarted remote stage would.
			if stg := stages[i%len(stages)]; i%3 == 0 {
				c.Deregister(stg.Info().StageID)
			} else if err := c.Register(stg.Info(), loopbackHandle(stg)); err != nil {
				t.Error(err)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body(i)
			}
		}()
	}
	wg.Wait()
	c.RunOnce()
	if rs, _ := c.LastRound(); rs.Stages != len(c.Stages()) || rs.CollectFailures != 0 {
		t.Errorf("after the churn a round covered %d stages with %d failures, want the %d registered and none",
			rs.Stages, rs.CollectFailures, len(c.Stages()))
	}
}
