package control

import (
	"errors"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// aggFixture builds an aggregator over four local stages: s1/s2 serve
// job1, s3/s4 serve job2.
func aggFixture(clk clock.Clock, opts ...AggOption) (*Aggregator, map[string]*stage.Stage) {
	agg := NewAggregator("agg-test", opts...)
	stages := make(map[string]*stage.Stage)
	for id, job := range map[string]string{"s1": "job1", "s2": "job1", "s3": "job2", "s4": "job2"} {
		stg, conn := localStage(id, job, clk)
		stages[id] = stg
		agg.AddMember(conn)
	}
	return agg, stages
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
	agg, stages := aggFixture(clk)
	if agg.Members() != 4 {
		t.Fatalf("Members = %d, want 4", agg.Members())
	}

	// Push: a grant is the rate each of the job's members is to enforce,
	// and the managed rule is installed where it did not exist.
	grants := []rpcio.JobGrant{{JobID: "job1", Rate: 500}, {JobID: "job2", Rate: 1000}}
	var reply rpcio.AggRoundReply
	if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants}, &reply); err != nil {
		t.Fatal(err)
	}
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
	reply = rpcio.AggRoundReply{}
	if err := agg.Round(&rpcio.AggRoundArgs{Collect: true}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.AggID != "agg-test" || reply.Stages != 4 {
		t.Errorf("reply identity = %q/%d, want agg-test/4", reply.AggID, reply.Stages)
	}
	if len(reply.Jobs) != 2 || reply.Jobs[0].JobID != "job1" || reply.Jobs[1].JobID != "job2" {
		t.Fatalf("reply.Jobs = %+v, want sorted [job1 job2]", reply.Jobs)
	}
	if j1 := reply.Jobs[0]; j1.Stages != 2 || j1.Demand != 300 {
		t.Errorf("job1 row = %+v, want 2 stages / demand 300", j1)
	}
	if j2 := reply.Jobs[1]; j2.Stages != 2 || j2.Demand != 100 {
		t.Errorf("job2 row = %+v, want 2 stages / demand 100", j2)
	}
}

func TestAggregatorReinstallsLostManagedRule(t *testing.T) {
	clk := clock.NewSim(epoch)
	agg, stages := aggFixture(clk)
	grants := []rpcio.JobGrant{{JobID: "job1", Rate: 500}, {JobID: "job2", Rate: 1000}}
	var reply rpcio.AggRoundReply
	if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants}, &reply); err != nil {
		t.Fatal(err)
	}
	// s2 restarts: its managed queue vanishes. The next push round must
	// bring it back at the fresh rate.
	stages["s2"].RemoveRule(ControlRuleID)
	if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants}, &reply); err != nil {
		t.Fatal(err)
	}
	rules := stages["s2"].Rules()
	if len(rules) != 1 || rules[0].ID != ControlRuleID || rules[0].Rate != 500 {
		t.Fatalf("s2 rules after reinstall = %+v, want managed rule at 500", rules)
	}
}

// deadConn fails every exchange, simulating an unreachable member.
type deadConn struct{ LocalConn }

func (d *deadConn) Start([]rpcio.StageOp, *stage.Stats, bool) {
	d.failStart(errors.New("member unreachable"))
}

func TestAggregatorReportsFailedStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	agg := NewAggregator("agg-partial")
	stg, conn := localStage("s1", "job1", clk)
	agg.AddMember(conn)
	dead, _ := localStage("s2", "job1", clk)
	agg.AddMember(&deadConn{LocalConn{Stg: dead}})
	_ = stg

	var reply rpcio.AggRoundReply
	err := agg.Round(&rpcio.AggRoundArgs{
		Grants:  []rpcio.JobGrant{{JobID: "job1", Rate: 1000}},
		Collect: true,
	}, &reply)
	if err != nil {
		t.Fatalf("member failure must not fail the round: %v", err)
	}
	if len(reply.Jobs) != 1 {
		t.Fatalf("reply.Jobs = %+v", reply.Jobs)
	}
	row := reply.Jobs[0]
	if row.Stages != 1 || row.FailedStages != 1 {
		t.Errorf("row = %+v, want 1 live / 1 failed", row)
	}
}

func TestAggregatorBorrowingSettlesOnPush(t *testing.T) {
	clk := clock.NewSim(epoch)
	agg := NewAggregator("agg-borrow", WithAggBorrowing(1.0))
	busy, busyConn := localStage("s1", "job1", clk)
	idle, idleConn := localStage("s2", "job1", clk)
	agg.AddMember(busyConn)
	agg.AddMember(idleConn)
	_ = idle

	// 100 ops/s per member: the shard as a whole holds 200.
	grants := []rpcio.JobGrant{{JobID: "job1", Rate: 100}}
	var reply rpcio.AggRoundReply
	if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants}, &reply); err != nil {
		t.Fatal(err)
	}

	// Saturate the busy member far past its per-stage share while its
	// sibling idles: the shortage path must borrow the sibling's unused
	// tokens rather than shaping.
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "job1"}
	busy.Offer(req, 500, time.Second)
	clk.Advance(time.Second)
	busy.Offer(req, 0, time.Second)

	borrowed, _, _ := agg.BorrowCounts()
	if borrowed <= 0 {
		t.Fatal("busy member did not borrow from its idle sibling")
	}
	// Work conservation with a hard ceiling: the two members together
	// must never admit more than the shard was granted (plus both
	// bursts), tokens moved but not minted.
	var st stage.Stats
	busy.CollectInto(&st)
	var admitted float64
	for _, q := range st.Queues {
		if q.RuleID == ControlRuleID {
			admitted = float64(q.Total)
		}
	}
	burst := busy.Rules()[0].EffectiveBurst() + idle.Rules()[0].EffectiveBurst()
	if ceiling := 200 + burst + borrowed; admitted > ceiling {
		t.Errorf("busy member admitted %v, above conservation ceiling %v", admitted, ceiling)
	}

	// The next plan push settles the ledger: debts repay or are
	// forgiven, never carried into the fresh allocation.
	if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants}, &reply); err != nil {
		t.Fatal(err)
	}
	b, r, f := agg.BorrowCounts()
	if b != r+f {
		t.Errorf("after settle: borrowed %v != repaid %v + forgiven %v", b, r, f)
	}
	if reply.Borrowed != b || reply.Repaid != r || reply.Forgiven != f {
		t.Errorf("reply counters %v/%v/%v diverge from pool %v/%v/%v",
			reply.Borrowed, reply.Repaid, reply.Forgiven, b, r, f)
	}
}

func TestTreeTopologyRebuildsOnRegistryChange(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(1000), WithTopology(2))
	stages := make(map[string]*stage.Stage)
	add := func(id, job string) {
		stg, conn := localStage(id, job, clk)
		stages[id] = stg
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	add("s1", "job1")
	add("s2", "job1")
	add("s3", "job1")
	offerTo(clk, stages, map[string]float64{"s1": 10, "s2": 10, "s3": 10})
	if c.RunOnce() == nil {
		t.Fatal("RunOnce returned nil")
	}
	if rs, _ := c.LastRound(); rs.Aggregators != 2 {
		t.Fatalf("round drove %d shards, want 2 for 3 stages at shard size 2", rs.Aggregators)
	}

	// Growing the fleet reshards lazily at the next round.
	add("s4", "job1")
	add("s5", "job1")
	offerTo(clk, stages, map[string]float64{"s4": 10, "s5": 10})
	if c.RunOnce() == nil {
		t.Fatal("RunOnce returned nil after growth")
	}
	rs, _ := c.LastRound()
	if rs.Aggregators != 3 {
		t.Errorf("round drove %d shards, want 3 for 5 stages", rs.Aggregators)
	}
	if rs.Stages != 5 {
		t.Errorf("RoundStats.Stages = %d, want 5", rs.Stages)
	}
}

func TestTreeModeOverWire(t *testing.T) {
	// One aggregator served through the encoded loopback: the controller
	// drives it via the Agg.Round wire protocol, and the round's byte
	// accounting shows traffic.
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(1000))
	agg, stages := aggFixture(clk)
	conn, err := NewRemoteAggConn(rpcio.EncodedLoopbackAgg(rpcio.NewAggService(agg)))
	if err != nil {
		t.Fatal(err)
	}
	if conn.ID() != "agg-test" {
		t.Fatalf("attach learned ID %q", conn.ID())
	}
	c.RegisterAggregator(conn)

	offerTo(clk, stages, map[string]float64{"s1": 100, "s2": 100, "s3": 100, "s4": 100})
	alloc := c.RunOnce()
	if alloc == nil {
		t.Fatal("RunOnce returned nil")
	}
	if alloc["job1"] != 500 || alloc["job2"] != 500 {
		t.Errorf("alloc = %v, want equal 500/500 split", alloc)
	}
	for id, stg := range stages {
		if got := stg.Rules()[0].Rate; got != 250 {
			t.Errorf("%s rate = %v, want 250", id, got)
		}
	}
	rs, ok := c.LastRound()
	if !ok || rs.Aggregators != 1 || rs.Stages != 4 {
		t.Errorf("RoundStats = %+v", rs)
	}
	if rs.BytesRead == 0 || rs.BytesWritten == 0 {
		t.Errorf("wire accounting empty: %+v", rs)
	}
	if !c.DeregisterAggregator("agg-test") {
		t.Error("DeregisterAggregator returned false")
	}
	if c.DeregisterAggregator("agg-test") {
		t.Error("double DeregisterAggregator returned true")
	}
}

// TestRegisteredAggregatorSharesTheSplit: stages registered with the
// controller and stages behind a registered aggregator are one fleet —
// a job's allocation divides equally among all its stages, wherever
// they are held — and the round's accounting counts each side its own
// way: one exchange per stage the controller holds, one round trip per
// phase to the aggregator.
func TestRegisteredAggregatorSharesTheSplit(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(1200))
	stages := make(map[string]*stage.Stage)
	agg := NewAggregator("agg-far")
	for _, id := range []string{"s1", "s2", "s3"} {
		stg, conn := localStage(id, "job1", clk)
		stages[id] = stg
		if id == "s3" {
			agg.AddMember(conn)
		} else if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	c.RegisterAggregator(&LocalAggConn{Agg: agg})

	if alloc := c.RunOnce(); alloc["job1"] != 1200 {
		t.Fatalf("alloc = %v, want job1 at the whole 1200", alloc)
	}
	for id, stg := range stages {
		if got := ruleRate(stg, ControlRuleID); got != 400 {
			t.Errorf("%s rate = %v, want 400 (1200 over the job's three stages)", id, got)
		}
	}
	rs, _ := c.LastRound()
	if rs.Aggregators != 2 || rs.Stages != 3 || rs.CollectCalls != 3 {
		t.Errorf("first round = %+v, want 2 shards, 3 stages, 2+1 collects", rs)
	}
	if rs.PushCalls != 3 || rs.PushOps != 3 || rs.PushesSkipped != 0 {
		t.Errorf("first round pushes = %d calls / %d ops / %d skipped, want 2 retunes + 1 grant", rs.PushCalls, rs.PushOps, rs.PushesSkipped)
	}
	// Steady: the controller's two stages are skipped one by one; the
	// aggregator still gets its grant, and skips its member itself.
	c.RunOnce()
	if rs, _ := c.LastRound(); rs.PushCalls != 1 || rs.PushesSkipped != 2 {
		t.Errorf("steady round = %d pushes / %d skipped, want 1 / 2", rs.PushCalls, rs.PushesSkipped)
	}
	if snaps := c.CollectAll(); len(snaps) != 1 || snaps[0].Stages != 3 {
		t.Errorf("CollectAll = %+v, want job1 with 3 stages", snaps)
	}
}

func TestTreeModeSkipsDeadShard(t *testing.T) {
	clk := clock.NewSim(epoch)
	var reported []string
	c := New(clk,
		WithAlgorithm(StaticEqualShare{}),
		WithClusterLimit(1000),
		WithErrorHandler(func(id string, err error) { reported = append(reported, id) }),
	)
	agg, stages := aggFixture(clk)
	c.RegisterAggregator(&LocalAggConn{Agg: agg})
	c.RegisterAggregator(&failingAggConn{id: "agg-dead"})

	offerTo(clk, stages, map[string]float64{"s1": 100, "s3": 100})
	alloc := c.RunOnce()
	if alloc == nil {
		t.Fatal("RunOnce returned nil")
	}
	rs, _ := c.LastRound()
	if rs.CollectFailures != 1 {
		t.Errorf("CollectFailures = %d, want 1", rs.CollectFailures)
	}
	found := false
	for _, id := range reported {
		if id == "agg-dead" {
			found = true
		}
	}
	if !found {
		t.Errorf("dead shard not reported: %v", reported)
	}
}

type failingAggConn struct{ id string }

func (f *failingAggConn) ID() string { return f.id }
func (f *failingAggConn) Round([]rpcio.JobGrant, bool, *rpcio.AggRoundReply) error {
	return errors.New("aggregator unreachable")
}
func (f *failingAggConn) WireStats() rpcio.WireStats { return rpcio.WireStats{} }
func (f *failingAggConn) Close() error               { return nil }

// memberKinds builds the two kinds of aggregator member — in-process and
// over the frame codec — the one Exec contract must serve alike.
var memberKinds = map[string]func(*stage.Stage) StageConn{
	"local": func(s *stage.Stage) StageConn { return &LocalConn{Stg: s} },
	"wire": func(s *stage.Stage) StageConn {
		return NewRemoteConn(s.Info(), rpcio.EncodedLoopbackStage(rpcio.NewStageService(s)))
	},
}

// TestAggregatorQuiescentRoundTouchesNothing proves the shard fast path
// through the one Exec contract, for in-process and wire members alike:
// once every member is quiet, a collect round re-materializes no slot
// and re-folds no row. The proof is a poison: a member slot is
// scribbled on between rounds, and a quiescent round must neither
// repair it (that would be a re-materialization) nor let it leak into
// the reply (that would be a re-fold). Traffic on one member then
// rewrites exactly that member's slot and rebuilds the rows.
func TestAggregatorQuiescentRoundTouchesNothing(t *testing.T) {
	for name, mkConn := range memberKinds {
		clk := clock.NewSim(epoch)
		agg := NewAggregator("agg-quiet", WithAggWorkers(1))
		stages := make(map[string]*stage.Stage)
		for _, id := range []string{"s1", "s2"} {
			stg, _ := localStage(id, "job1", clk)
			stages[id] = stg
			agg.AddMember(mkConn(stg))
		}
		round := func(grants []rpcio.JobGrant) rpcio.AggRoundReply {
			t.Helper()
			var reply rpcio.AggRoundReply
			if err := agg.Round(&rpcio.AggRoundArgs{Grants: grants, Collect: true}, &reply); err != nil {
				t.Fatal(err)
			}
			return reply
		}
		round([]rpcio.JobGrant{{JobID: "job1", Rate: 1000}}) // install + first (full) collect
		offerTo(clk, stages, map[string]float64{"s1": 100, "s2": 50})
		round(nil)
		clk.Advance(5 * time.Second) // rates decay to zero: the fleet goes quiet
		round(nil)
		settled := round(nil)

		const poison = 12345.5
		members := agg.topology().members
		members[0].stats.Queues[0].DemandRate = poison
		quiet := round(nil)
		if got := members[0].stats.Queues[0].DemandRate; got != poison {
			t.Errorf("%s: quiescent round re-materialized member 0's slot (DemandRate %v)", name, got)
		}
		if len(quiet.Jobs) != 1 || quiet.Jobs[0] != settled.Jobs[0] {
			t.Errorf("%s: quiescent round re-folded: rows %+v, want %+v", name, quiet.Jobs, settled.Jobs)
		}
		for i, m := range members {
			if m.changed {
				t.Errorf("%s: member %d reported a change in a quiescent round", name, i)
			}
		}

		// Traffic on s2 only: its slot is rewritten and the rows rebuild
		// (reading member 0's still-poisoned slot, which proves s1 was
		// again left alone).
		offerTo(clk, stages, map[string]float64{"s2": 70})
		busy := round(nil)
		if members[0].changed || !members[1].changed {
			t.Errorf("%s: changed = %v/%v, want only member 1", name, members[0].changed, members[1].changed)
		}
		if want := poison + 70; busy.Jobs[0].Demand != want {
			t.Errorf("%s: rebuilt demand = %v, want %v", name, busy.Jobs[0].Demand, want)
		}
	}
}

// TestAggregatorSlotSurvivesForeignCollector: a member connection may
// have a second collector — a stage registered with a controller and
// also handed to somebody's aggregator, or probed by an operator's
// tool. The foreign collect consumes the "changed" signal, so the
// aggregator's held promise alone would leave its slot stale; the
// connection must notice that its last fill went elsewhere and rewrite
// the slot.
func TestAggregatorSlotSurvivesForeignCollector(t *testing.T) {
	for name, mkConn := range memberKinds {
		clk := clock.NewSim(epoch)
		stg, _ := localStage("s1", "job1", clk)
		conn := mkConn(stg)
		agg := NewAggregator("agg-shared", WithAggWorkers(1))
		agg.AddMember(conn)
		var reply rpcio.AggRoundReply
		collect := func() {
			t.Helper()
			reply = rpcio.AggRoundReply{}
			if err := agg.Round(&rpcio.AggRoundArgs{Collect: true}, &reply); err != nil {
				t.Fatal(err)
			}
		}
		if err := agg.Round(&rpcio.AggRoundArgs{Grants: []rpcio.JobGrant{{JobID: "job1", Rate: 1000}}}, &reply); err != nil {
			t.Fatal(err)
		}
		collect()
		collect() // the slot is now held and quiet

		// Traffic, then quiet again — and the foreign collector sees the
		// new totals first.
		offerTo(clk, map[string]*stage.Stage{"s1": stg}, map[string]float64{"s1": 100})
		clk.Advance(5 * time.Second)
		var foreign stage.Stats
		if _, _, err := rpcio.Exec(conn, nil, &foreign, false); err != nil {
			t.Fatal(err)
		}
		if foreign.Queues[0].TotalDemand != 100 {
			t.Fatalf("%s: foreign collect saw TotalDemand %d, want 100", name, foreign.Queues[0].TotalDemand)
		}
		collect()
		if got := agg.topology().members[0].stats.Queues[0].TotalDemand; got != 100 {
			t.Errorf("%s: aggregator slot stale after a foreign collect: TotalDemand %d, want 100", name, got)
		}
	}
}
