package experiments

import (
	"fmt"
	"strings"
	"time"

	"padll/internal/control"
	"padll/internal/metrics"
	"padll/internal/posix"
	"padll/internal/sim"
	"padll/internal/trace"
)

// ---- E7.1: chaos replay — controller crash and recovery ----

// The failure-model experiment (DESIGN.md §8): four jobs with Priority
// reservations run flat demand at 1.5x their reservations, the
// controller crashes a third of the way in, losing its registry, and a
// fresh one boots ten minutes later. The claim under test is PADLL's
// fail-secure stance: stages that lose the controller freeze their
// last-pushed limits (no unlimited burst into the MDS, no collapse to
// zero), re-register at their first attempt on the retry schedule
// after the restart, which replays their rules, and are reconciled by
// the first round after that.

const (
	chaosLimit     = 300_000
	chaosInterval  = sim.Interval // the simulator's control period: one tick
	chaosCrashAt   = 15 * time.Minute
	chaosRecoverAt = 25 * time.Minute
	chaosHorizon   = 40 * time.Minute
)

// chaosReservations mirrors the Fig. 5 Priority setup.
var chaosReservations = []float64{40_000, 60_000, 80_000, 120_000}

// ChaosReplayResult is E7's output.
type ChaosReplayResult struct {
	CrashAt, RecoverAt time.Duration
	// PerJob and Aggregate are admitted-throughput series (ops/s/tick).
	PerJob    map[string]*metrics.Series
	Aggregate *metrics.Series
	// FrozenRates is each job's enforced rate captured mid-outage; with
	// Priority allocation it must equal the job's reservation.
	FrozenRates map[string]float64
	// OutageMaxDeviation is the worst per-tick relative deviation of any
	// job's admitted rate from its frozen allocation during the outage.
	OutageMaxDeviation float64
	// Reconciled reports whether every stage was back under management
	// (non-degraded, allocated and enforcing its share) after the first
	// round that followed its re-registration.
	Reconciled bool
	// DegradedSeconds is each stage's accounted outage time.
	DegradedSeconds map[string]float64
}

// chaosFlatTrace builds a constant-rate single-op trace covering the
// horizon (1-minute samples; Accel 1 keeps trace time = wall time).
func chaosFlatTrace(rate float64) *trace.Trace {
	tr := trace.NewTrace(time.Minute, posix.OpOpen)
	for t := time.Duration(0); t <= chaosHorizon; t += time.Minute {
		// A flat curve cannot fail validation.
		if err := tr.Append(rate); err != nil {
			panic(err)
		}
	}
	return tr
}

// ChaosReplay runs E7. The seed is accepted for symmetry with the other
// experiments; the scenario itself is deterministic (flat demand).
func ChaosReplay(seed int64) ChaosReplayResult {
	_ = seed
	c := sim.NewCluster(sim.Config{Duration: chaosHorizon, Controller: []control.Option{
		control.WithAlgorithm(control.FixedRates{}),
		control.WithClusterLimit(chaosLimit),
	}})
	res := ChaosReplayResult{
		CrashAt:         chaosCrashAt,
		RecoverAt:       chaosRecoverAt,
		FrozenRates:     map[string]float64{},
		DegradedSeconds: map[string]float64{},
	}
	jobs := make([]string, len(chaosReservations))
	for i, r := range chaosReservations {
		id := fmt.Sprintf("job%d", i+1)
		jobs[i] = id
		c.AddJob(sim.JobSpec{
			ID:          id,
			Arrival:     0,
			Trace:       chaosFlatTrace(r * 1.5), // demand above the grant: the limit binds
			Accel:       1,
			Reservation: r,
		})
	}

	c.Schedule(chaosCrashAt, "crash-controller", (*sim.Cluster).CrashController)
	// Mid-outage, capture what each (degraded) stage actually enforces.
	c.Schedule((chaosCrashAt+chaosRecoverAt)/2, "", func(c *sim.Cluster) {
		for _, id := range jobs {
			res.FrozenRates[id] = managedRate(c, id)
		}
	})
	c.Schedule(chaosRecoverAt, "restart-controller", (*sim.Cluster).RestartController)
	// The crash closes every stage's link; each re-registers at its first
	// attempt on the retry schedule after the restart. Just after the
	// round that follows, every stage must be reconciled: non-degraded,
	// allocated its Priority share by the restarted controller and
	// re-tuned to it.
	c.Schedule(sim.ReconciledAt(chaosCrashAt, chaosRecoverAt)+chaosInterval/2, "", func(c *sim.Cluster) {
		res.Reconciled = true
		alloc := c.Controller().LastAllocation()
		for i, id := range jobs {
			for _, st := range c.StagesOf(id) {
				if st.Degraded() || alloc[id] != chaosReservations[i] || managedRate(c, id) != chaosReservations[i] {
					res.Reconciled = false
				}
			}
		}
	})

	rep := c.Run()
	res.PerJob = rep.PerJob
	res.Aggregate = rep.Aggregate
	for _, id := range jobs {
		for _, st := range c.StagesOf(id) {
			res.DegradedSeconds[st.Info().StageID] = st.DegradedFor().Seconds()
		}
	}

	// Outage deviation: every tick strictly inside the outage window,
	// each job's admitted rate vs its frozen allocation.
	tick := time.Second
	for i, id := range jobs {
		alloc := chaosReservations[i]
		s := rep.PerJob[id]
		for p := 0; p < s.Len(); p++ {
			end := time.Duration(p+1) * tick
			if end <= chaosCrashAt+2*chaosInterval || end > chaosRecoverAt {
				continue
			}
			dev := (s.Points[p].Value - alloc) / alloc
			if dev < 0 {
				dev = -dev
			}
			if dev > res.OutageMaxDeviation {
				res.OutageMaxDeviation = dev
			}
		}
	}
	return res
}

// managedRate reads a job's enforced padll-control rate (its single
// stage's managed queue).
func managedRate(c *sim.Cluster, jobID string) float64 {
	return sim.RuleRate(c.StagesOf(jobID)[0], control.ControlRuleID)
}

// Render formats the E7 report.
func (r ChaosReplayResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7.1 — chaos replay: controller crash at %v, recovery at %v (Priority, limit %dK)\n",
		r.CrashAt, r.RecoverAt, chaosLimit/1000)
	fmt.Fprintf(&b, "  %-8s %12s %12s %14s\n", "job", "frozen/s", "reserved/s", "degraded")
	for i, resv := range chaosReservations {
		id := fmt.Sprintf("job%d", i+1)
		deg := r.DegradedSeconds[id+"-stage0"]
		fmt.Fprintf(&b, "  %-8s %12.0f %12.0f %13.0fs\n", id, r.FrozenRates[id], resv, deg)
	}
	fmt.Fprintf(&b, "  outage deviation from frozen limits: %.2f%% (invariant: <= 5%%)\n", r.OutageMaxDeviation*100)
	fmt.Fprintf(&b, "  reconciled within one control interval of restart: %v\n", r.Reconciled)
	fmt.Fprintf(&b, "  mean admitted: %.0f ops/s across crash + recovery\n", r.Aggregate.Mean())
	return b.String()
}
