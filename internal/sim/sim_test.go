package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/control"
	"padll/internal/pfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
	"padll/internal/trace"
)

// flatTrace returns a trace with constant rate per op over the duration.
func flatTrace(d time.Duration, rate float64, ops ...posix.Op) *trace.Trace {
	tr := trace.NewTrace(time.Minute, ops...)
	n := int(d / time.Minute)
	rates := make([]float64, len(ops))
	for i := range rates {
		rates[i] = rate
	}
	for i := 0; i < n; i++ {
		tr.Append(rates...)
	}
	return tr
}

func TestBaselineAdmitsEverything(t *testing.T) {
	c := NewCluster(Config{})
	// 6 trace-minutes at 100 ops/s open; accel 60 -> 6s experiment time.
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(6*time.Minute, 100, posix.OpOpen), Accel: 60})
	rep := c.Run()
	// The replayer follows the 100 ops/s curve over 6 wall seconds
	// (trace time compressed 60x): 600 operations.
	if math.Abs(rep.TotalDemanded-600) > 1 {
		t.Errorf("demanded = %v, want 600", rep.TotalDemanded)
	}
	if math.Abs(rep.TotalAdmitted-rep.TotalDemanded) > 1 {
		t.Errorf("baseline admitted %v of %v", rep.TotalAdmitted, rep.TotalDemanded)
	}
	done, ok := rep.Completion["j1"]
	if !ok {
		t.Fatal("job never completed")
	}
	// Unthrottled: completes right at trace end (6s).
	if done != 6*time.Second {
		t.Errorf("completion = %v, want 6s", done)
	}
	// Admitted rate per tick follows the curve: 100 ops/s.
	if got := rep.PerJob["j1"].Max(); math.Abs(got-100) > 1 {
		t.Errorf("peak rate = %v, want 100", got)
	}
}

func TestThrottledJobBuildsBacklogAndFinishesLate(t *testing.T) {
	c := NewCluster(Config{})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(6*time.Minute, 100, posix.OpOpen), Accel: 60})
	// Throttle to half the demand (50 ops/s against a 100 ops/s curve).
	for _, st := range c.StagesOf("j1") {
		st.ApplyRule(policy.Rule{ID: "cap", Rate: 50, Burst: 5})
	}
	rep := c.Run()
	done, ok := rep.Completion["j1"]
	if !ok {
		t.Fatal("job never completed")
	}
	// 600 ops at 50/s needs ~12s instead of 6s.
	if done < 11*time.Second || done > 14*time.Second {
		t.Errorf("completion = %v, want ≈12s", done)
	}
	// Admission rate must respect the cap every tick (small burst slack).
	for _, p := range rep.PerJob["j1"].Points {
		if p.Value > 50+5 {
			t.Errorf("tick rate %v exceeds cap 50(+5 burst)", p.Value)
		}
	}
	if math.Abs(rep.TotalAdmitted-600) > 1 {
		t.Errorf("admitted = %v, want all 600 eventually", rep.TotalAdmitted)
	}
}

func TestBacklogCatchUpOvershoot(t *testing.T) {
	// Throttle aggressively for the first half, then lift the limit: the
	// backlog must drain at a rate above the original demand (Fig. 4's
	// overshoot).
	c := NewCluster(Config{})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(10*time.Minute, 100, posix.OpGetAttr), Accel: 60})
	for _, st := range c.StagesOf("j1") {
		st.ApplyRule(policy.Rule{ID: "cap", Rate: 10, Burst: 1})
	}
	c.Schedule(5*time.Second, "", func(c *Cluster) {
		for _, st := range c.StagesOf("j1") {
			st.SetRate("cap", 50_000)
		}
	})
	rep := c.Run()
	// Demand rate is 100/s; during catch-up the admitted rate must
	// exceed it.
	var sawOvershoot bool
	for _, p := range rep.PerJob["j1"].Points {
		if p.Value > 110 {
			sawOvershoot = true
			break
		}
	}
	if !sawOvershoot {
		t.Error("no catch-up overshoot after limit was raised")
	}
}

func TestMultiStageJobSplitsLoad(t *testing.T) {
	c := NewCluster(Config{})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(2*time.Minute, 100, posix.OpOpen), Accel: 60, Stages: 4})
	rep := c.Run()
	if _, ok := rep.Completion["j1"]; !ok {
		t.Fatal("multi-stage job never completed")
	}
	stages := c.StagesOf("j1")
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	// Each stage passes through a quarter of the 200-op load.
	for _, st := range stages {
		stats := st.Collect()
		if stats.Passthrough != 50 {
			t.Errorf("stage passthrough = %d, want 50", stats.Passthrough)
		}
	}
}

func TestArrivalsAndControllerLifecycle(t *testing.T) {
	c := NewCluster(Config{Controller: []control.Option{
		control.WithAlgorithm(control.StaticEqualShare{}),
		control.WithClusterLimit(12000),
	}})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60})
	c.AddJob(JobSpec{ID: "j2", Arrival: 2 * time.Second, Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60})
	rep := c.Run()
	if len(rep.Completion) != 2 {
		t.Fatalf("completions = %v", rep.Completion)
	}
	// After both finish, the controller has no jobs left.
	if got := c.Controller().Jobs(); len(got) != 0 {
		t.Errorf("jobs after run = %v", got)
	}
	// j2's series is shorter (arrived later).
	if rep.PerJob["j2"].Len() >= rep.PerJob["j1"].Len()+3 {
		t.Errorf("series lengths: j1=%d j2=%d", rep.PerJob["j1"].Len(), rep.PerJob["j2"].Len())
	}
}

// TestFaultFreeRoundsArmNoDeadline: the controller reaches every stage
// through the frame transport, whose deadline timer runs on the
// cluster's clock. In a fault-free run every reply is in before the
// round gathers it, so no exchange arms that timer: between two steps
// nothing waits on the clock.
func TestFaultFreeRoundsArmNoDeadline(t *testing.T) {
	c := NewCluster(Config{Controller: []control.Option{
		control.WithAlgorithm(control.ProportionalShare{}),
		control.WithClusterLimit(150),
	}})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60, Stages: 2})
	c.AddJob(JobSpec{ID: "j2", Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60})
	rounds := 0
	for at := Interval / 2; at < 4*time.Second; at += Interval {
		c.Schedule(at, "", func(c *Cluster) {
			if _, ok := c.Controller().LastRound(); ok {
				rounds++
			}
			if n := c.Clock().PendingWaiters(); n != 0 {
				t.Errorf("t=+%v: %d timers armed on the cluster's clock after a fault-free round", at, n)
			}
		})
	}
	c.Run()
	if rounds == 0 {
		t.Fatal("no control round ran before the probes")
	}
}

func TestControllerEnforcesClusterLimit(t *testing.T) {
	c := NewCluster(Config{Controller: []control.Option{
		control.WithAlgorithm(control.StaticEqualShare{}),
		control.WithClusterLimit(100),
	}})
	// Two jobs each demanding 100/s (200 aggregate) against a 100
	// cluster limit.
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60})
	c.AddJob(JobSpec{ID: "j2", Trace: flatTrace(4*time.Minute, 100, posix.OpOpen), Accel: 60})
	rep := c.Run()
	// Aggregate admitted rate must hover at the limit, not demand.
	var above int
	for _, p := range rep.Aggregate.Points {
		if p.Value > 100*1.2 {
			above++
		}
	}
	if above > 2 { // allow brief transients at arrival before first loop run
		t.Errorf("aggregate exceeded cluster limit in %d ticks", above)
	}
	// Both jobs should take ≈2x the baseline time (throttled to half).
	for _, id := range []string{"j1", "j2"} {
		done, ok := rep.Completion[id]
		if !ok {
			t.Fatalf("%s never completed", id)
		}
		if done < 7*time.Second {
			t.Errorf("%s completed at %v; limit not enforced", id, done)
		}
	}
}

func TestPassthroughModeMatchesBaseline(t *testing.T) {
	run := func(mode stage.Mode) *Report {
		c := NewCluster(Config{StageMode: mode})
		c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(3*time.Minute, 200, posix.OpOpen), Accel: 60})
		// Install a rule so passthrough actually classifies the stream.
		for _, st := range c.StagesOf("j1") {
			st.ApplyRule(policy.Rule{ID: "cap", Rate: 1, Burst: 1}) // starved, but ignored in Passthrough
		}
		return c.Run()
	}
	passthrough := run(stage.Passthrough)
	if _, ok := passthrough.Completion["j1"]; !ok {
		t.Fatal("passthrough job never completed")
	}
	if math.Abs(passthrough.TotalAdmitted-passthrough.TotalDemanded) > 1 {
		t.Error("passthrough throttled the stream")
	}
}

func TestPFSBackpressureFeedsBacklog(t *testing.T) {
	// MDS capacity far below demand: the stage admits freely (no rules),
	// but the PFS pushes unserved load back into the job's backlog, so
	// completion stretches to the MDS's pace.
	c := NewCluster(Config{})
	backend := pfs.New(c.Clock(), pfs.Config{MDSCapacity: 50, MDSBurst: 5})
	c.cfg.PFS = backend
	// Demand: 100 ops/s over 2 experiment-seconds; total 200 cost units
	// (getattr costs 1) against a 50 units/s MDS.
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(2*time.Minute, 100, posix.OpGetAttr), Accel: 60})
	rep := c.Run()
	done, ok := rep.Completion["j1"]
	if !ok {
		t.Fatal("job never completed under MDS backpressure")
	}
	// 200 cost units at 50/s -> ≈4s, double the unthrottled 2s.
	if done < 3*time.Second || done > 6*time.Second {
		t.Errorf("completion = %v, want ≈4s (MDS-bound)", done)
	}
	if rep.PFSStats == nil {
		t.Fatal("PFS stats missing from report")
	}
	if math.Abs(rep.PFSStats.MetadataUnits-200) > 1 {
		t.Errorf("MDS served %v units, want 200", rep.PFSStats.MetadataUnits)
	}
}

func TestReportAggregateSumsJobs(t *testing.T) {
	c := NewCluster(Config{})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(2*time.Minute, 50, posix.OpOpen), Accel: 60})
	c.AddJob(JobSpec{ID: "j2", Trace: flatTrace(2*time.Minute, 70, posix.OpOpen), Accel: 60})
	rep := c.Run()
	// During steady state the aggregate is 50+70 = 120 ops/s.
	if got := rep.Aggregate.Max(); math.Abs(got-120) > 1 {
		t.Errorf("aggregate peak = %v, want 120", got)
	}
}

func TestScheduledEventsFireInOrder(t *testing.T) {
	c := NewCluster(Config{Duration: 3 * time.Second})
	c.AddJob(JobSpec{ID: "j1", Trace: flatTrace(10*time.Minute, 10, posix.OpOpen), Accel: 60})
	var order []int
	c.Schedule(2*time.Second, "", func(*Cluster) { order = append(order, 2) })
	c.Schedule(1*time.Second, "", func(*Cluster) { order = append(order, 1) })
	c.Schedule(0, "", func(*Cluster) { order = append(order, 0) })
	c.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("event order = %v", order)
	}
}

func TestDurationHorizonStopsUnfinishedJobs(t *testing.T) {
	c := NewCluster(Config{Duration: 2 * time.Second})
	c.AddJob(JobSpec{ID: "slow", Trace: flatTrace(time.Hour, 100, posix.OpOpen), Accel: 60})
	rep := c.Run()
	if _, ok := rep.Completion["slow"]; ok {
		t.Error("hour-long job reported complete after a 2s horizon")
	}
	if rep.Elapsed != 2*time.Second {
		t.Errorf("elapsed = %v, want 2s", rep.Elapsed)
	}
}

func TestVariableRateCurveIsFollowed(t *testing.T) {
	// Trace: 1 minute at 100 ops/s, then 1 minute at 20 ops/s.
	tr := trace.NewTrace(time.Minute, posix.OpOpen)
	tr.Append(100)
	tr.Append(20)
	c := NewCluster(Config{})
	c.AddJob(JobSpec{ID: "j1", Trace: tr, Accel: 60})
	rep := c.Run()
	s := rep.PerJob["j1"]
	if s.Len() < 2 {
		t.Fatalf("series too short: %d", s.Len())
	}
	if math.Abs(s.Points[0].Value-100) > 1 {
		t.Errorf("tick 1 rate = %v, want 100", s.Points[0].Value)
	}
	if math.Abs(s.Points[1].Value-20) > 1 {
		t.Errorf("tick 2 rate = %v, want 20", s.Points[1].Value)
	}
}

// Property: for any demand curve and any static limit, the sim conserves
// work — admitted never exceeds demanded, each completed job admitted
// everything it demanded, and per-tick admission respects limit + burst.
func TestSimConservationProperty(t *testing.T) {
	f := func(rates []uint16, limitRaw uint16) bool {
		if len(rates) == 0 {
			return true
		}
		if len(rates) > 20 {
			rates = rates[:20]
		}
		tr := trace.NewTrace(time.Minute, posix.OpOpen)
		for _, r := range rates {
			tr.Append(float64(r % 500))
		}
		limit := float64(limitRaw%300) + 10
		burst := limit / 10
		c := NewCluster(Config{Duration: 10 * time.Minute})
		c.AddJob(JobSpec{ID: "j", Trace: tr, Accel: 60})
		for _, st := range c.StagesOf("j") {
			st.ApplyRule(policy.Rule{ID: "cap", Rate: limit, Burst: burst})
		}
		rep := c.Run()
		if rep.TotalAdmitted > rep.TotalDemanded+1e-6 {
			return false
		}
		if _, done := rep.Completion["j"]; done {
			if rep.TotalAdmitted < rep.TotalDemanded-0.5 {
				return false
			}
		}
		for _, p := range rep.PerJob["j"].Points {
			if p.Value > limit+burst+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestArrivalDuringOutageRegistersAfterRestart: a job that arrives while
// the controller is down cannot register. Its stage starts degraded, and
// the job stays out of the registry, the last round and the allocation
// until the restart. The stage registers at the first heartbeat after
// the restart and is reconciled by the round that follows it.
func TestArrivalDuringOutageRegistersAfterRestart(t *testing.T) {
	c := NewCluster(Config{Duration: 15 * time.Second, Controller: []control.Option{
		control.WithAlgorithm(control.FixedRates{}),
		control.WithClusterLimit(1000),
	}})
	c.AddJob(JobSpec{ID: "early", Trace: flatTrace(time.Hour, 100, posix.OpOpen), Reservation: 300})
	c.AddJob(JobSpec{ID: "late", Arrival: 6 * time.Second, Trace: flatTrace(time.Hour, 100, posix.OpOpen), Reservation: 200})
	c.Schedule(4*time.Second, "crash-controller", (*Cluster).CrashController)
	c.Schedule(10*time.Second, "restart-controller", (*Cluster).RestartController)
	var checked int
	c.Schedule(10*time.Second-Interval/2, "", func(c *Cluster) {
		checked++
		if !c.StagesOf("late")[0].Degraded() {
			t.Error("stage that arrived mid-outage is not degraded")
		}
		ctl := c.Controller()
		if slices.Contains(ctl.Jobs(), "late") {
			t.Error("a dead controller registered the late job")
		}
		if rs, _ := ctl.LastRound(); rs.Stages != 1 {
			t.Errorf("last round before the restart covered %d stages, want 1", rs.Stages)
		}
		if _, ok := ctl.LastAllocation()["late"]; ok {
			t.Error("late job allocated before the restart")
		}
	})
	// The restart at 10s fires before that step's heartbeats and round.
	c.Schedule(10*time.Second+Interval/2, "", func(c *Cluster) {
		checked++
		late := c.StagesOf("late")[0]
		if late.Degraded() {
			t.Error("late stage still degraded after the first round that follows the restart")
		}
		if rs, _ := c.Controller().LastRound(); rs.Stages != 2 {
			t.Errorf("first round after the restart covered %d stages, want 2", rs.Stages)
		}
		if got, want := RuleRate(late, control.ControlRuleID), c.Controller().LastAllocation()["late"]; got != want || want != 200 {
			t.Errorf("late stage enforces %v, allocation %v, want both 200", got, want)
		}
	})
	c.Run()
	if checked != 2 {
		t.Fatalf("%d of 2 probes ran", checked)
	}
	log := c.Log()
	for _, want := range []string{
		"t=+6s       stage late-stage0 registration failed, starts degraded: chaos: controller is down",
		"t=+10s      stage late-stage0 re-registered after 4s degraded",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

// TestRestartBetweenHeartbeatsReregisters: a controller that crashes and
// restarts between two heartbeats never leaves a stage a failed probe,
// so the stage never degrades — but the fresh controller does not hold
// it, and the next heartbeat registers it again instead of leaving it
// unmanaged under its stale limit.
func TestRestartBetweenHeartbeatsReregisters(t *testing.T) {
	c := NewCluster(Config{Duration: 8 * time.Second, Controller: []control.Option{
		control.WithAlgorithm(control.FixedRates{}),
		control.WithClusterLimit(1000),
	}})
	c.AddJob(JobSpec{ID: "early", Trace: flatTrace(time.Hour, 100, posix.OpOpen), Reservation: 300})
	c.Schedule(4*time.Second+Interval/4, "crash-controller", (*Cluster).CrashController)
	c.Schedule(4*time.Second+Interval/2, "restart-controller", (*Cluster).RestartController)
	var checked bool
	c.Schedule(5*time.Second+Interval/2, "", func(c *Cluster) {
		checked = true
		stg := c.StagesOf("early")[0]
		if stg.Degraded() || stg.DegradedFor() != 0 {
			t.Errorf("stage degraded (%v, for %v) though every probe reached a controller", stg.Degraded(), stg.DegradedFor())
		}
		ctl := c.Controller()
		if !ctl.Registered(stg.Info().StageID) {
			t.Error("the restarted controller does not hold the stage after a heartbeat")
		}
		if rs, _ := ctl.LastRound(); rs.Stages != 1 {
			t.Errorf("first round after the restart covered %d stages, want 1", rs.Stages)
		}
	})
	c.Run()
	if !checked {
		t.Fatal("the probe did not run")
	}
	if want := "t=+5s       stage early-stage0 re-registered: the controller did not hold it"; !strings.Contains(c.Log(), want) {
		t.Errorf("log missing %q:\n%s", want, c.Log())
	}
}
