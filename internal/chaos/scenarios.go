// Package chaos scripts seeded failure storylines for PADLL's control
// plane on sim.Cluster, which injects the faults and logs every
// observable transition. A scenario draws every random choice from its
// seed, so same-seed runs log byte for byte the same, and the tests can
// assert exact recovery behaviour (frozen limits during an outage,
// reconciliation within one control interval of restart).
package chaos

import (
	"math/rand"
	"time"

	"padll/internal/control"
	"padll/internal/posix"
	"padll/internal/sim"
)

// horizon is how long a canonical scenario runs.
const horizon = 30 * time.Second

// clusterLimit is the scenarios' cluster-wide limit. Their controller
// runs Priority (control.FixedRates), which grants each job its
// reservation verbatim, so expected rates are exact whatever the
// demand; the limit only sets the equal share a job starts at.
const clusterLimit = 100_000

// raisedJob1 and raisedJob2 are the reservations ControllerCrashMidRun
// raises job1 (from 30k) and job2 (from 50k) to just before its crash.
const raisedJob1, raisedJob2 = 36_000, 60_000

// stageIDs are the small cluster's stages in ID order: s1 and s2 serve
// job1 (reserved 30k), s3 and s4 job2 (reserved 50k).
var stageIDs = []string{"s1", "s2", "s3", "s4"}

// Scenario is one failure storyline on a small cluster, with its outage
// window (when it has one) for tests to place probes by.
type Scenario struct {
	*sim.Cluster
	OutageStart, OutageEnd time.Duration
}

// smallCluster builds the scenarios' cluster, and the seeded source of a
// scenario's random choices.
func smallCluster(seed int64, until time.Duration) (*Scenario, *rand.Rand) {
	opts := []control.Option{control.WithClusterLimit(clusterLimit), control.WithAlgorithm(control.FixedRates{})}
	s := &Scenario{Cluster: sim.NewCluster(sim.Config{Duration: until, Controller: opts})}
	for i, id := range stageIDs {
		s.AddStage(id, []string{"job1", "job2"}[i/2], []float64{30_000, 50_000}[i/2])
	}
	return s, rand.New(rand.NewSource(seed))
}

// offerDemand makes every live stage report metadata demand each
// interval, so collect rounds carry non-trivial numbers.
func offerDemand(s *Scenario, until time.Duration) {
	for t := time.Duration(0); t < until; t += sim.Interval {
		// Unnamed events are silent: demand refills would drown the log.
		s.Schedule(t, "", func(c *sim.Cluster) {
			for _, id := range stageIDs {
				if n := c.Node(id); !n.Crashed() {
					n.Stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: n.Job}, 5000, sim.Interval)
				}
			}
		})
	}
}

// ControllerCrashMidRun: the controller dies partway through a push
// phase (some stages got the round's rates, some did not), stays dead
// for a seed-chosen outage, then restarts with an empty registry. Stages
// must freeze their limits while degraded and reconcile within one
// control interval of the restart. A steady FixedRates fleet has nothing
// to push, so the arming event also raises both jobs' reservations: the
// crashing round carries four real retunes for the budget to cut short.
func ControllerCrashMidRun(seed int64) *Scenario {
	s, rng := smallCluster(seed, horizon)
	offerDemand(s, horizon)
	// Crash between rounds 5 and 9, after 1..3 of the round's pushes;
	// recover 6..10 intervals later.
	crashRound := 5 + rng.Intn(5)
	s.OutageStart = time.Duration(crashRound)*sim.Interval - sim.Interval/2
	s.OutageEnd = s.OutageStart + time.Duration(6+rng.Intn(5))*sim.Interval
	pushes := 1 + rng.Intn(3)
	s.Schedule(s.OutageStart, "arm-mid-round-crash", func(c *sim.Cluster) {
		c.SetReservation("job1", raisedJob1)
		c.SetReservation("job2", raisedJob2)
		c.ArmMidRoundCrash(pushes)
	})
	s.Schedule(s.OutageEnd, "restart-controller", (*sim.Cluster).RestartController)
	return s
}

// StageCrashMidCollect kills one seed-chosen stage in the middle of a
// collect fan-out. The round whose collect finds it dead must drop the
// corpse and re-grant its share to the job's surviving stage.
func StageCrashMidCollect(seed int64) *Scenario {
	s, rng := smallCluster(seed, horizon)
	offerDemand(s, horizon)
	victim := stageIDs[rng.Intn(len(stageIDs))]
	at := time.Duration(4+rng.Intn(4))*sim.Interval - sim.Interval/2
	collects := 1 + rng.Intn(2)
	s.Schedule(at, "arm-stage-crash", func(c *sim.Cluster) { c.ArmStageCrashAfterCollects(victim, collects) })
	return s
}

// PartitionHeal cuts one seed-chosen stage off from the controller:
// the next round's exchange with it fails, which kills its link, so the
// controller drops it and the stage freezes its limits. Then it heals
// the partition. The stage must re-register and be folded back into the
// allocation within one control interval of the heal.
func PartitionHeal(seed int64) *Scenario {
	s, rng := smallCluster(seed, horizon)
	offerDemand(s, horizon)
	victim := stageIDs[rng.Intn(len(stageIDs))]
	s.OutageStart = time.Duration(3+rng.Intn(3))*sim.Interval + sim.Interval/2
	s.OutageEnd = s.OutageStart + time.Duration(8+rng.Intn(4))*sim.Interval
	s.Schedule(s.OutageStart, "partition", func(c *sim.Cluster) { c.Partition(victim) })
	s.Schedule(s.OutageEnd, "heal", func(c *sim.Cluster) { c.Heal(victim) })
	return s
}

// BatchedOutage drives the batched delta protocol through a partition/
// heal followed by a full controller outage and restart: faults must
// not wedge the fleet, and steady-state collects must stay incremental
// across both recoveries.
func BatchedOutage(seed int64) *Scenario {
	s, rng := smallCluster(seed, horizon)
	offerDemand(s, horizon)
	victim := stageIDs[rng.Intn(len(stageIDs))]
	pFrom := time.Duration(3+rng.Intn(3))*sim.Interval + sim.Interval/2
	pTo := pFrom + time.Duration(4+rng.Intn(3))*sim.Interval
	s.Schedule(pFrom, "partition", func(c *sim.Cluster) { c.Partition(victim) })
	s.Schedule(pTo, "heal", func(c *sim.Cluster) { c.Heal(victim) })
	s.OutageStart = pTo + time.Duration(2+rng.Intn(3))*sim.Interval + sim.Interval/2
	s.OutageEnd = s.OutageStart + time.Duration(4+rng.Intn(4))*sim.Interval
	s.Schedule(s.OutageStart, "crash-controller", (*sim.Cluster).CrashController)
	s.Schedule(s.OutageEnd, "restart-controller", (*sim.Cluster).RestartController)
	return s
}

// FrameLoss drops Stage.Batch reply frames on seed-chosen nodes at
// seed-chosen rounds: each loss kills the victim's link, as a lost
// reply's deadline kills a TCP connection, so the controller drops the
// victim and the victim degrades and registers again at once, collected
// in full on its new link, while the fleet keeps its allocations.
func FrameLoss(seed int64) *Scenario {
	s, rng := smallCluster(seed, horizon)
	offerDemand(s, horizon)
	drops := 2 + rng.Intn(3)
	for i := 0; i < drops; i++ {
		victim := stageIDs[rng.Intn(len(stageIDs))]
		at := time.Duration(3+rng.Intn(20))*sim.Interval + sim.Interval/2
		s.Schedule(at, "drop-reply", func(c *sim.Cluster) { c.DropNextBatchReply(victim) })
	}
	return s
}
