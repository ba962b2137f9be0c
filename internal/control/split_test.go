package control

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// shareFleet is a controller and the stages a share property drives:
// stages holds each stage ID's current incarnation, registered or not.
type shareFleet struct {
	c      *Controller
	clk    *clock.Sim
	stages map[string]*stage.Stage
}

func newShareFleet(withAlgorithm bool) *shareFleet {
	clk := clock.NewSim(epoch)
	var opts []Option
	if withAlgorithm {
		opts = append(opts, WithAlgorithm(ProportionalShare{}), WithClusterLimit(12000))
	}
	return &shareFleet{c: New(clk, opts...), clk: clk, stages: make(map[string]*stage.Stage)}
}

// join registers a fresh incarnation of stage id, as a restart does.
func (f *shareFleet) join(t *testing.T, id, job string) {
	t.Helper()
	stg, h := localStage(id, job, f.clk)
	f.stages[id] = stg
	if err := f.c.Register(stg.Info(), h); err != nil {
		t.Fatal(err)
	}
}

// ruleSum is one recorded rule as the registered stages hold it.
type ruleSum struct {
	name         string
	rate, sum    float64
	holders      int
	heldByHolder []float64
}

// sums reads every recorded rule — each job's allocation and each
// administrator rule — against what the registered stages that carry
// it enforce.
func (f *shareFleet) sums() []ruleSum {
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ruleSum
	add := func(name, id string, rate float64, carries func(stage.Info) bool) {
		s := ruleSum{name: name, rate: rate}
		for _, m := range c.membersLocked() {
			if carries(m.info) {
				held := ruleRate(f.stages[m.info.StageID], id)
				s.holders++
				s.sum += max(held, 0)
				s.heldByHolder = append(s.heldByHolder, held)
			}
		}
		out = append(out, s)
	}
	for job, a := range c.lastAlloc {
		add("managed "+job, ControlRuleID, a, func(in stage.Info) bool { return in.JobID == job })
	}
	for _, a := range c.admin {
		if a.cluster {
			add("cluster "+a.rule.ID, a.rule.ID, a.rule.Rate, func(in stage.Info) bool { return !c.ownsLocked(in.JobID, a.rule.ID) })
		} else {
			add("job "+a.job+" "+a.rule.ID, a.rule.ID, a.rule.Rate, func(in stage.Info) bool { return in.JobID == a.job })
		}
	}
	return out
}

// check fails t if a recorded rule's holders hold more than the rule,
// and, when exact, if a rule with holders is not held in full.
func (f *shareFleet) check(t *testing.T, step string, exact bool) {
	t.Helper()
	for _, s := range f.sums() {
		tol := 1e-9 * max(1, s.rate)
		switch {
		case s.sum > s.rate+tol:
			t.Fatalf("%s: %s's shares sum to %v, above its %v (held %v)", step, s.name, s.sum, s.rate, s.heldByHolder)
		case exact && s.holders > 0 && math.Abs(s.sum-s.rate) > tol:
			t.Fatalf("%s: %s's shares sum to %v, not its %v (held %v)", step, s.name, s.sum, s.rate, s.heldByHolder)
		}
	}
}

// TestRuleSharesFollowMembership: stages join and leave under a job
// rule, a group rule and a cluster rule. After every step no rule's
// per-stage rates sum above the rule; after the round that follows —
// or, with no algorithm, after the step's own re-splitting pass — they
// sum to it. Splitting at the moment of a call and never again gives a
// joining stage a fresh share beside the old ones: three stages of a
// 1,000 ops/s job rule then hold 1,333.3.
func TestRuleSharesFollowMembership(t *testing.T) {
	for _, withAlgorithm := range []bool{true, false} {
		t.Run(fmt.Sprintf("algorithm=%v", withAlgorithm), func(t *testing.T) {
			f := newShareFleet(withAlgorithm)
			round := func(step string) {
				t.Helper()
				f.check(t, step, !withAlgorithm)
				f.c.RunOnce()
				f.check(t, step+", then a round", true)
			}
			f.join(t, "a1", "jobA")
			f.join(t, "a2", "jobA")
			f.join(t, "b1", "jobB")
			round("three stages")
			for _, err := range []error{
				f.c.ApplyRuleToJob("jobA", policy.Rule{ID: "job", Rate: 1000}),
				f.c.ApplyRuleToJobs([]string{"jobA", "jobB"}, policy.Rule{ID: "group", Rate: 2000}),
				f.c.ApplyRuleCluster(policy.Rule{ID: "cluster", Rate: 3000}),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			f.check(t, "rules applied", true)
			f.join(t, "a3", "jobA")
			round("a3 joined")
			f.join(t, "b2", "jobB")
			f.join(t, "a4", "jobA")
			round("b2 and a4 joined")
			f.join(t, "a2", "jobA") // a restart: a fresh stage under a2's ID
			round("a2 restarted")
			f.c.Deregister("a1")
			f.c.Deregister("a3")
			round("a1 and a3 left")
			f.c.Deregister("b1")
			f.c.Deregister("b2")
			round("jobB left")
			f.join(t, "b3", "jobB")
			round("b3 joined")
			if got := ruleRate(f.stages["a2"], "job"); got != 500 {
				t.Errorf("a2 holds the job rule at %v, want 500: 1000 over jobA's two stages", got)
			}
			if got := ruleRate(f.stages["b3"], "cluster"); got != 1000 {
				t.Errorf("b3 holds the cluster rule at %v, want 1000: 3000 over three stages", got)
			}
		})
	}
}

// FuzzRuleShares: any program of registrations, drops, administrator
// rules, reservations and rounds keeps every recorded rule's per-stage
// rates at or below the rule after every step, and at the rule after
// every round (with no algorithm, after every step: each registration
// and drop re-splits in its own pass).
func FuzzRuleShares(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 3, 7, 0, 1, 9, 6, 0, 0, 5, 0, 4, 1, 6, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 4, 0, 3, 3, 0, 1, 0, 9, 6, 0, 0, 0, 4, 2, 5, 5})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 2, 1, 9, 5, 3, 0, 6, 0, 4, 0, 6, 0, 1, 0, 1, 2, 6, 0, 1, 4, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runShareProgram(t, data)
	})
}

// runShareProgram decodes data into steps over six stage IDs in three
// jobs and checks the share property after each. The decoder is total:
// the first byte picks the algorithm, then each step is an op byte and
// an argument byte (a missing argument reads 0).
func runShareProgram(t *testing.T, data []byte) {
	withAlgorithm := len(data) > 0 && data[0]%2 == 1
	f := newShareFleet(withAlgorithm)
	jobs := []string{"j0", "j1", "j2"}
	arg := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	rule := func(a int) policy.Rule {
		return policy.Rule{ID: fmt.Sprintf("r%d", a%3), Rate: float64(100 * (1 + a/3))}
	}
	for i := 1; i < len(data); i += 2 {
		op, a := data[i]%7, arg(i+1)
		id := fmt.Sprintf("s%d", a%6)
		step := fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, a)
		exact := !withAlgorithm
		switch op {
		case 0:
			f.join(t, id, jobs[(a/6)%3]) // a stage may come back in another job
		case 1:
			f.c.Deregister(id)
		case 2:
			_ = f.c.ApplyRuleToJob(jobs[a%3], rule(a))
		case 3:
			_ = f.c.ApplyRuleToJobs([]string{jobs[a%3], jobs[(a+1)%3]}, rule(a))
		case 4:
			_ = f.c.ApplyRuleCluster(rule(a))
		case 5:
			f.c.SetReservation(jobs[a%3], float64(1000*(a%5)))
		case 6:
			f.c.RunOnce()
			exact = true
		}
		f.check(t, step, exact)
	}
}

// TestReappliedRuleReachesItsStagesWhole: applying a rule again under
// its ID and at its rate, with another matcher, burst and action,
// installs the new rule on every stage that carries it, at every
// granularity, with an algorithm and without one. A stage's collect
// shows a queue's limit only, so a push that skipped every stage whose
// limit already matched would leave the old rule enforced.
func TestReappliedRuleReachesItsStagesWhole(t *testing.T) {
	before := policy.Rule{ID: "admin", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: 1200}
	after := policy.Rule{ID: "admin", Match: policy.Matcher{Classes: []posix.Class{posix.ClassData}}, Rate: 1200, Burst: 7, Action: policy.ActionDrop}
	for _, tc := range []struct {
		name     string
		apply    func(c *Controller, r policy.Rule) error
		carriers []string
	}{
		{"job", func(c *Controller, r policy.Rule) error { return c.ApplyRuleToJob("jobA", r) }, []string{"a1", "a2"}},
		{"jobs", func(c *Controller, r policy.Rule) error { return c.ApplyRuleToJobs([]string{"jobA", "jobB"}, r) }, []string{"a1", "a2", "b1"}},
		{"cluster", func(c *Controller, r policy.Rule) error { return c.ApplyRuleCluster(r) }, []string{"a1", "a2", "b1"}},
	} {
		for _, withAlgorithm := range []bool{true, false} {
			f := newShareFleet(withAlgorithm)
			f.join(t, "a1", "jobA")
			f.join(t, "a2", "jobA")
			f.join(t, "b1", "jobB")
			for _, r := range []policy.Rule{before, after} {
				f.c.RunOnce()
				if err := tc.apply(f.c, r); err != nil {
					t.Fatal(err)
				}
			}
			f.c.RunOnce()
			for _, id := range tc.carriers {
				for _, r := range f.stages[id].Rules() {
					if r.ID == after.ID && (r.Burst != after.Burst || r.Action != after.Action || !slices.Equal(r.Match.Classes, after.Match.Classes)) {
						t.Errorf("%s, algorithm=%v: %s enforces %+v, want the reapplied %+v", tc.name, withAlgorithm, id, r, after)
					}
				}
			}
		}
	}
}

// TestApplyFailsOnlyOnItsStages: an install's error is a failure of a
// stage that carries the applied rule. A stage of another job that
// refuses its collect is reported to the error handler, and fails no
// other job's apply. A group rule is installed in one pass, whatever
// the number of jobs in the group. With no algorithm installed, a read
// that drops no stage and a re-registration that leaves every job's
// stage count as it was re-split nothing: neither costs a pass.
func TestApplyFailsOnlyOnItsStages(t *testing.T) {
	clk := clock.NewSim(epoch)
	var reported []string
	c := New(clk, WithErrorHandler(func(id string, err error) { reported = append(reported, id) }))
	collects := make(map[string]int)
	for _, id := range []string{"a1", "b1", "c1", "d1"} {
		stg := stage.New(stage.Info{StageID: id, JobID: "job" + strings.ToUpper(id[:1])}, clk)
		h := gatedHandle(stg, func(ops []rpcio.StageOp, collect bool) error {
			if collect {
				collects[id]++
			}
			if id == "b1" && (collect || len(ops) > 0 && ops[0].Rule.ID == "admin") {
				return rpcio.RemoteError("injected refusal")
			}
			return nil
		})
		if err := c.Register(stg.Info(), h); err != nil {
			t.Fatal(err)
		}
	}
	rule := policy.Rule{ID: "admin", Rate: 1000}
	if err := c.ApplyRuleToJob("jobA", rule); err != nil {
		t.Errorf("jobA's apply failed on another job's stage: %v", err)
	}
	if len(reported) != 1 || reported[0] != "b1" {
		t.Errorf("the error handler saw %v, want b1's refusal", reported)
	}
	if err := c.ApplyRuleToJob("jobB", rule); err == nil || !strings.Contains(err.Error(), "on b1") {
		t.Errorf("jobB's apply: err = %v, want b1's refusal", err)
	}
	clear(collects)
	if err := c.ApplyRuleToJobs([]string{"jobA", "jobC", "jobD"}, rule); err != nil {
		t.Errorf("group apply: %v", err)
	}
	if collects["a1"] != 1 {
		t.Errorf("a group rule over three jobs collected a1 %d times, want once: one install", collects["a1"])
	}
	clear(collects)
	c.CollectAll()
	if collects["a1"] != 1 {
		t.Errorf("a read that dropped nothing collected a1 %d times, want once: no re-split", collects["a1"])
	}
	clear(collects)
	stg := stage.New(stage.Info{StageID: "d1", JobID: "jobD"}, clk)
	if err := c.Register(stg.Info(), loopbackHandle(stg)); err != nil {
		t.Fatal(err)
	}
	if collects["a1"] != 0 {
		t.Errorf("d1's re-registration collected a1 %d times, want none: its job's count is unchanged", collects["a1"])
	}
	if got := ruleRate(stg, "admin"); got != 1000.0/3 {
		t.Errorf("d1 re-registered with the group rule at %v, want its share %v", got, 1000.0/3)
	}
}
