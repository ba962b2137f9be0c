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
	"padll/internal/rpcio"
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

	algs := []Algorithm{ProportionalShare{}, StaticEqualShare{}, FixedRates{}}
	var evicted []string
	c := New(clk,
		WithAlgorithm(algs[rng.Intn(len(algs))]),
		WithClusterLimit(float64(1000*(1+rng.Intn(50)))),
		WithEvictAfter(2),
		WithErrorHandler(func(id string, err error) {
			if errors.Is(err, ErrEvicted) {
				evicted = append(evicted, id)
			}
		}))

	type node struct {
		id   string
		stg  *stage.Stage
		down atomic.Bool
	}
	var nodes []*node
	for j, jobs := 0, 2+rng.Intn(4); j < jobs; j++ {
		job := fmt.Sprintf("job%d", j)
		c.SetReservation(job, float64(100*rng.Intn(40)))
		for s, n := 0, 1+rng.Intn(6); s < n; s++ {
			// IDs interleave the jobs in StageID order, so a job's stages
			// are not neighbours in the fan-out.
			id := fmt.Sprintf("s%02d-%d", s, j)
			stg := stage.New(stage.Info{StageID: id, JobID: job}, clk)
			nd := &node{id: id, stg: stg}
			nodes = append(nodes, nd)
			if err := c.Register(stg.Info(), flakyConn(stg, &nd.down)); err != nil {
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
			if _, ok := rt.Alloc[info.JobID]; ok {
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
// reservations, algorithm, one member that stops answering and is
// evicted mid-run, one that restarts without its managed rule — are
// each driven twice and
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
// its managed rule gets back exactly the managed classes, scoped to its
// own job.
func TestControlledMatcherReachesEveryShard(t *testing.T) {
	// The controller keeps one shard over its whole registry.
	t.Run("one-shard", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000))
		stg, h := localStage("s1", "jobA", clk)
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
		other, h2 := localStage("s2", "jobB", clk)
		if err := c.Register(other.Info(), h2); err != nil {
			t.Fatal(err)
		}
		c.RunOnce()
		stg.RemoveRule(ControlRuleID)
		c.RunOnce()
		rules := stg.Rules()
		if len(rules) != 1 || rules[0].ID != ControlRuleID {
			t.Fatalf("managed rule not reinstalled: %+v", rules)
		}
		want := policy.Matcher{Classes: managedClasses, JobID: "jobA"}
		if !reflect.DeepEqual(rules[0].Match, want) {
			t.Errorf("reinstalled matcher = %+v, want %+v", rules[0].Match, want)
		}
	})
}

// TestReshardingLeaksNoGoroutines: a registry change rebuilds the
// shard, and the replaced one must leave nothing running behind it —
// neither retry goroutines nor, at a size whose collect is split, the
// helpers that scatter it.
func TestReshardingLeaksNoGoroutines(t *testing.T) {
	t.Run("stages=8", func(t *testing.T) { reshardingLeaksNothing(t, 8) })
	t.Run("stages=128,procs=4", func(t *testing.T) {
		withProcs(t, 4)
		reshardingLeaksNothing(t, 128)
	})
}

func reshardingLeaksNothing(t *testing.T, n int) {
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000))
	regs := make([]member, n)
	for i := range regs {
		stg, h := localStage(fmt.Sprintf("s%03d", i), "jobA", clk)
		regs[i] = member{info: stg.Info(), h: h}
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	c.RunOnce()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		m := regs[i*7%len(regs)]
		if err := c.Register(m.info, m.h); err != nil {
			t.Fatal(err)
		}
		c.RunOnce()
		if rs, _ := c.LastRound(); rs.Stages != n {
			t.Fatalf("re-registration %d: round covered %d stages, want %d", i, rs.Stages, n)
		}
	}
	// Helper and retry goroutines exit before RunOnce returns, but a
	// goroutine that has run its last instruction may still be counted
	// for a moment.
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
		stg, h := localStage(fmt.Sprintf("s%d", i), job, clk)
		if i == 0 {
			h = flakyConn(stg, &doomed)
		}
		if err := c.Register(stg.Info(), h); err != nil {
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

// withProcs runs the rest of the test at GOMAXPROCS procs. A shard
// sizes its collect's split when it is built, so a test builds its
// controller after the call.
func withProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestScatterStartsEveryMemberOnce: however a collect's scatter is
// split, every member is asked for its exchange exactly once, the round
// goroutine's share is the first chunk, and each other chunk has a
// helper of its own.
func TestScatterStartsEveryMemberOnce(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 63, 64, 65, 255, 256, 257} {
		for w := 1; w <= 4; w++ {
			ms := make([]*member, n)
			index := make(map[*member]int, n)
			asked := make([]atomic.Int32, n)
			for i := range ms {
				ms[i] = &member{}
				index[ms[i]] = i
			}
			sh := &shard{members: ms}
			sh.split(w)
			if len(sh.helpers) != w-1 || sh.first != n/w {
				t.Fatalf("n=%d w=%d: %d helpers, first chunk %d; want %d and %d", n, w, len(sh.helpers), sh.first, w-1, n/w)
			}
			sh.pass(true,
				func(m *member) ([]rpcio.StageOp, *stage.Stats, bool) {
					asked[index[m]].Add(1)
					return nil, nil, false // start nothing: no handle to start
				},
				func(*member, []rpcio.OpResult, bool, error) { t.Error("finished an exchange never started") })
			for i := range asked {
				if got := asked[i].Load(); got != 1 {
					t.Fatalf("n=%d w=%d: member %d asked %d times, want once", n, w, i, got)
				}
			}
		}
	}
}

// TestSplitRoundEqualsSerialRound: a round whose collect is scattered
// by the round goroutine and a helper is the round the round goroutine
// alone runs. A 128-stage in-process fleet — failing or refusing
// members in both chunks, a recovery, a new failure and a lost managed
// rule in the second round — runs the same two rounds at one P and at
// four; the round accounting, the allocations, the rows and the errors
// reported, in order, must be identical.
func TestSplitRoundEqualsSerialRound(t *testing.T) {
	type outcome struct {
		Rounds []RoundStats
		Allocs []map[string]float64
		Rows   [][]JobSnapshot
		Errors []string
	}
	run := func(t *testing.T, procs, helpers int) outcome {
		withProcs(t, procs)
		clk := clock.NewSim(epoch)
		var out outcome
		c := New(clk, WithAlgorithm(ProportionalShare{}), WithClusterLimit(40000),
			WithErrorHandler(func(id string, err error) { out.Errors = append(out.Errors, id+": "+err.Error()) }))
		const n = 128
		stages := make(map[string]*stage.Stage, n)
		down := make([]atomic.Bool, n)
		for i := 0; i < n; i++ {
			stg := stage.New(stage.Info{StageID: fmt.Sprintf("s%03d", i), JobID: fmt.Sprintf("job%d", i%5)}, clk)
			stages[stg.Info().StageID] = stg
			h := flakyConn(stg, &down[i])
			if i == 40 || i == 100 {
				h = setRateFailingConn(stg)
			}
			if err := c.Register(stg.Info(), h); err != nil {
				t.Fatal(err)
			}
		}
		c.roundMu.Lock()
		sh := c.reshard()
		c.roundMu.Unlock()
		if got := len(sh.helpers); got != helpers {
			t.Fatalf("GOMAXPROCS %d: the collect has %d helpers, want %d", procs, got, helpers)
		}
		demand := func(round int) map[string]float64 {
			d := make(map[string]float64, n)
			for i := 0; i < n; i++ {
				d[fmt.Sprintf("s%03d", i)] = float64(100 + (i*37+round*11)%900)
			}
			return d
		}
		round := func() {
			out.Allocs = append(out.Allocs, c.RunOnce())
			rs, _ := c.LastRound()
			out.Rounds = append(out.Rounds, rs)
			out.Rows = append(out.Rows, c.CollectAll())
		}
		down[5].Store(true)
		down[77].Store(true)
		offerTo(clk, stages, demand(0))
		round()
		down[5].Store(false)
		down[110].Store(true)
		stages["s060"].RemoveRule(ControlRuleID)
		offerTo(clk, stages, demand(1))
		round()
		return out
	}
	var serial, split outcome
	t.Run("procs=1", func(t *testing.T) { serial = run(t, 1, 0) })
	t.Run("procs=4", func(t *testing.T) { split = run(t, 4, 1) })
	if len(serial.Rounds) != 2 || len(serial.Errors) == 0 || serial.Rounds[0].CollectFailures != 2 || serial.Rounds[1].PushCalls == 0 {
		t.Fatalf("the serial run exercised no failure or no push: %+v, errors %v", serial.Rounds, serial.Errors)
	}
	if !reflect.DeepEqual(split, serial) {
		t.Errorf("split round diverges from the serial one:\n split  %+v\n serial %+v", split, serial)
	}
}

// TestInstallsBesideSplitRoundsDoNotDeadlock: administrator installs
// hold several handles at once, started in StageID order, and a split
// collect holds its helper's chunk before the round goroutine has
// started the first; were the two to overlap, each could wait for a
// Finish the other never reaches. Rounds and installs of every
// granularity run side by side over a fleet whose collect splits, and
// must all return.
func TestInstallsBesideSplitRoundsDoNotDeadlock(t *testing.T) {
	withProcs(t, 4)
	clk := clock.NewSim(epoch)
	c := New(clk, WithAlgorithm(StaticEqualShare{}), WithClusterLimit(8000))
	for i := 0; i < 128; i++ {
		stg, h := localStage(fmt.Sprintf("s%03d", i), fmt.Sprintf("job%d", i%2), clk)
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	c.RunOnce()
	if c.sh.helpers == nil {
		t.Fatal("the collect is not split")
	}
	const iterations = 500
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < iterations; i++ {
			c.RunOnce()
		}
		errs <- nil
	}()
	go func() {
		rule := policy.Rule{ID: "admin", Match: policy.Matcher{Classes: []posix.Class{posix.ClassData}}, Rate: 1000}
		for i := 0; i < iterations; i++ {
			for _, err := range []error{c.ApplyRuleCluster(rule), c.ApplyRuleToJob("job1", rule), c.ApplyRuleToJobs([]string{"job0", "job1"}, rule)} {
				if err != nil {
					errs <- err
					return
				}
			}
		}
		errs <- nil
	}()
	deadline := time.After(time.Minute)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("rounds and installs deadlocked")
		}
	}
}
