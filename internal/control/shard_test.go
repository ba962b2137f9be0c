package control

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// roundTrace is everything one round of a fleet run exposes.
type roundTrace struct {
	Alloc    map[string]float64
	Rates    map[string]float64        // stage -> managed rate (-1: no managed rule)
	Matchers map[string]policy.Matcher // stage -> managed rule's matcher
	Snaps    []JobSnapshot             // CollectAll after the round
	Stats    RoundStats
	Stages   int      // registered after the round
	Evicted  []string // reported with ErrEvicted during the round
}

// runRandomFleet drives a seeded random fleet for a few rounds and
// records what each round did. Everything random is drawn from the seed
// alone, so two runs of one seed see the same fleet, the same demand and
// the same faults.
func runRandomFleet(t *testing.T, seed int64) []roundTrace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSim(epoch)

	// A matcher that is not the default, so a reinstall that forgot it
	// shows.
	matcher := policy.Matcher{Classes: []posix.Class{posix.ClassMetadata, posix.ClassDirectory}}
	algs := []Algorithm{ProportionalShare{}, StaticEqualShare{}, FixedRates{}}
	byUser := rng.Intn(2) == 1
	var evicted []string
	opts := []Option{
		WithAlgorithm(algs[rng.Intn(len(algs))]),
		WithClusterLimit(float64(1000 * (1 + rng.Intn(50)))),
		WithControlledMatcher(matcher),
		WithEvictAfter(2),
		WithErrorHandler(func(id string, err error) {
			if errors.Is(err, ErrEvicted) {
				evicted = append(evicted, id)
			}
		}),
	}
	if byUser {
		opts = append(opts, WithGroupBy(GroupByUser))
	}
	c := New(clk, opts...)

	type node struct {
		id   string
		stg  *stage.Stage
		down atomic.Bool
	}
	var nodes []*node
	users := []string{"alice", "bob", "carol"}
	for j, jobs := 0, 2+rng.Intn(4); j < jobs; j++ {
		job, user := fmt.Sprintf("job%d", j), users[rng.Intn(len(users))]
		key := job
		if byUser {
			key = user
		}
		c.SetReservation(key, float64(100*rng.Intn(40)))
		for s, n := 0, 1+rng.Intn(6); s < n; s++ {
			// IDs interleave the jobs in StageID order, so a job's stages
			// are not neighbours in the fan-out.
			id := fmt.Sprintf("s%02d-%d", s, j)
			stg := stage.New(stage.Info{StageID: id, JobID: job, User: user}, clk)
			nd := &node{id: id, stg: stg}
			nodes = append(nodes, nd)
			if err := c.Register(flakyConn(stg, &nd.down)); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := nodes[rng.Intn(len(nodes))] // stops answering collects, and is evicted
	dieAt := 1 + rng.Intn(3)
	amnesiac := victim // restarts: loses its managed rule
	for amnesiac == victim {
		amnesiac = nodes[rng.Intn(len(nodes))]
	}
	forgetAt := 1 + rng.Intn(4)

	var trace []roundTrace
	for round := 0; round < 6; round++ {
		if round == dieAt {
			victim.down.Store(true)
		}
		if round == forgetAt {
			amnesiac.stg.RemoveRule(ControlRuleID)
		}
		// Whole operations over a whole second: every rate a stage reports
		// is an integer.
		for _, nd := range nodes {
			req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: nd.stg.Info().JobID}
			nd.stg.Offer(req, float64(rng.Intn(2000)), time.Second)
		}
		clk.Advance(time.Second)

		evicted = nil
		rt := roundTrace{
			Alloc:    c.RunOnce(),
			Rates:    map[string]float64{},
			Matchers: map[string]policy.Matcher{},
		}
		rt.Evicted = evicted
		rt.Stats, _ = c.LastRound()
		// Wire bytes carry the handles' random collector identities, whose
		// varint width differs from run to run.
		rt.Stats.BytesRead, rt.Stats.BytesWritten = 0, 0
		for _, nd := range nodes {
			rt.Rates[nd.id] = ruleRate(nd.stg, ControlRuleID)
			for _, r := range nd.stg.Rules() {
				if r.ID == ControlRuleID {
					rt.Matchers[nd.id] = r.Match
				}
			}
		}
		rt.Snaps = c.CollectAll()
		rt.Stages = len(c.Stages())
		trace = append(trace, rt)

		// Member-level accounting: one collect per registered stage, and a
		// push or a skip for every stage of a job that was allocated.
		planned := 0
		for _, info := range c.Stages() {
			key := info.JobID
			if byUser {
				key = info.User
			}
			if _, ok := rt.Alloc[key]; ok {
				planned++
			}
		}
		if got := rt.Stats.PushCalls + rt.Stats.PushesSkipped; got != planned {
			t.Errorf("seed %d round %d: %d pushes + %d skips, want one per planned stage (%d)",
				seed, round, rt.Stats.PushCalls, rt.Stats.PushesSkipped, planned)
		}
		if want := rt.Stages + len(rt.Evicted); rt.Stats.Stages != want || rt.Stats.CollectCalls != want {
			t.Errorf("seed %d round %d: Stages %d CollectCalls %d, want %d each",
				seed, round, rt.Stats.Stages, rt.Stats.CollectCalls, want)
		}
	}
	return trace
}

// TestShardingInvariance: a round is a function of the registry and
// the seed. Seeded random fleets — jobs × stages per job, demand,
// reservations, algorithm, job or user grouping, a custom controlled
// matcher, one member that stops answering and is evicted mid-run, one
// that restarts without its managed rule — are each driven twice and
// must produce the identical allocation, bit-identical managed rate and
// the same managed matcher on every stage, identical CollectAll
// snapshots (wait percentiles, degraded and failed counts included), the
// same eviction in the same round, and the same RoundStats.
func TestShardingInvariance(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		want := runRandomFleet(t, seed)
		sawEviction := false
		for _, rt := range want {
			sawEviction = sawEviction || len(rt.Evicted) > 0
		}
		if !sawEviction {
			t.Errorf("seed %d: the failing member was never evicted", seed)
		}
		got := runRandomFleet(t, seed)
		for round := range want {
			if !reflect.DeepEqual(got[round], want[round]) {
				t.Errorf("seed %d: round %d diverges between two runs:\n got  %+v\n want %+v",
					seed, round, got[round], want[round])
				break
			}
		}
	}
}

// TestControlledMatcherReachesEveryShard: a stage that restarts without
// its managed rule gets it back with the matcher the controller was
// configured with.
func TestControlledMatcherReachesEveryShard(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		matcher := policy.Matcher{Classes: []posix.Class{posix.ClassDirectory}}
		c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000), WithControlledMatcher(matcher))
		stg, conn := localStage("s1", "jobA", clk)
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
		c.RunOnce()
		stg.RemoveRule(ControlRuleID)
		c.RunOnce()
		rules := stg.Rules()
		if len(rules) != 1 || rules[0].ID != ControlRuleID {
			t.Fatalf("managed rule not reinstalled: %+v", rules)
		}
		want := matcher
		want.JobID = "jobA"
		if !reflect.DeepEqual(rules[0].Match, want) {
			t.Errorf("reinstalled matcher = %+v, want the configured %+v", rules[0].Match, want)
		}
	})
}

// TestReshardingLeaksNoGoroutines: a registry change rebuilds the
// shard, and the replaced one must leave nothing running behind it.
func TestReshardingLeaksNoGoroutines(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000), WithPushConcurrency(2))
	conns := make([]*RemoteConn, 8)
	for i := range conns {
		_, conns[i] = localStage(fmt.Sprintf("s%d", i), "jobA", clk)
		if err := c.Register(conns[i]); err != nil {
			t.Fatal(err)
		}
	}
	c.RunOnce()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if err := c.Register(conns[i%len(conns)]); err != nil {
			t.Fatal(err)
		}
		c.RunOnce()
		if rs, _ := c.LastRound(); rs.Stages != 8 {
			t.Fatalf("re-registration %d: round covered %d stages, want 8", i, rs.Stages)
		}
	}
	// Round workers exit before RunOnce returns, but a goroutine that has
	// run its last instruction may still be counted for a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across 20 registry changes", before, after)
	}
}

// TestMemberRecordsSurviveAReshard: an eviction rebuilds the shard in
// the middle of a round, between the collect and the push, and the
// rebuild must not forget what the collect just learned — the stages
// already at their rate are still skipped, only the evicted stage's
// sibling is retuned.
func TestMemberRecordsSurviveAReshard(t *testing.T) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(FixedRates{}), WithClusterLimit(8000), WithEvictAfter(1))
	c.SetReservation("jobA", 3000)
	c.SetReservation("jobB", 1000)
	var doomed atomic.Bool // s0 stops answering collects
	for i, job := range []string{"jobB", "jobA", "jobA", "jobB", "jobA"} {
		stg, _ := localStage(fmt.Sprintf("s%d", i), job, clk)
		conn := StageConn(loopbackConn(stg))
		if i == 0 {
			conn = flakyConn(stg, &doomed)
		}
		if err := c.Register(conn); err != nil {
			t.Fatal(err)
		}
	}
	c.RunOnce()
	c.RunOnce()
	if rs, _ := c.LastRound(); rs.PushesSkipped != 5 {
		t.Fatalf("steady round skipped %d pushes, want 5", rs.PushesSkipped)
	}
	doomed.Store(true)
	c.RunOnce()
	if got := len(c.Stages()); got != 4 {
		t.Fatalf("%d stages registered after the eviction round, want 4", got)
	}
	rs, _ := c.LastRound()
	if rs.PushCalls != 1 || rs.PushesSkipped != 3 {
		t.Errorf("eviction round: %d pushed, %d skipped; want jobB's survivor retuned and jobA's three stages skipped",
			rs.PushCalls, rs.PushesSkipped)
	}
}
