package chaos

import (
	"time"

	"padll/internal/posix"
)

// raisedJob1 and raisedJob2 are the reservations ControllerCrashMidRun
// raises job1 (from 30k) and job2 (from 50k) to just before its crash.
const (
	raisedJob1 = 36_000
	raisedJob2 = 60_000
)

// The canonical scenarios below build a small cluster (two jobs, two
// stages each, reservations on both jobs) and schedule one failure
// storyline. Every random choice comes from the harness's seeded rng,
// so a scenario is fully determined by its seed.

func smallCluster(seed int64, evictAfter int) *Harness {
	h := New(Config{
		Seed:       seed,
		EvictAfter: evictAfter,
		Reservations: map[string]float64{
			"job1": 30_000,
			"job2": 50_000,
		},
	})
	for _, s := range []struct{ id, job string }{
		{"s1", "job1"}, {"s2", "job1"},
		{"s3", "job2"}, {"s4", "job2"},
	} {
		h.AddStage(s.id, s.job)
	}
	return h
}

// offerDemand makes every live stage report metadata demand each tick so
// collect rounds carry non-trivial numbers through the log.
func offerDemand(h *Harness, until time.Duration) {
	for t := time.Duration(0); t < until; t += Interval {
		// Unnamed events are silent: demand refills would drown the log.
		h.At(t, "", func(h *Harness) {
			for _, id := range h.ids {
				n := h.nodes[id]
				if n.crashed.Load() {
					continue
				}
				n.Stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: n.Job}, 5000, Interval)
			}
		})
	}
}

// ControllerCrashMidRun is the tentpole scenario: the controller dies
// partway through a push phase (some stages got the round's rates, some
// did not), stays dead for a seed-chosen outage, then restarts with an
// empty registry. Stages must freeze their limits while degraded and
// reconcile within one control interval of the restart.
//
// A steady FixedRates fleet has nothing to push — the loop skips every
// stage already at its rate — so the arming event also raises both
// jobs' reservations: the crashing round then carries four real
// retunes for the budget to cut short.
func ControllerCrashMidRun(seed int64) *Harness {
	h := smallCluster(seed, 0)
	offerDemand(h, 30*time.Second)
	// Crash between rounds 5 and 9, after 1..3 of the round's pushes;
	// recover 6..10 intervals later.
	crashRound := 5 + h.rng.Intn(5)
	h.OutageStart = time.Duration(crashRound)*Interval - Interval/2
	h.OutageEnd = h.OutageStart + time.Duration(6+h.rng.Intn(5))*Interval
	pushes := 1 + h.rng.Intn(3)
	h.At(h.OutageStart, "arm-mid-round-crash", func(h *Harness) {
		h.SetReservation("job1", raisedJob1)
		h.SetReservation("job2", raisedJob2)
		h.ArmMidRoundCrash(pushes)
	})
	h.At(h.OutageEnd, "restart-controller", func(h *Harness) { h.RestartController() })
	return h
}

// StageCrashMidCollect kills one seed-chosen stage in the middle of a
// collect fan-out. With eviction enabled the controller must sweep the
// corpse and re-grant its share to the job's surviving stage.
func StageCrashMidCollect(seed int64) *Harness {
	h := smallCluster(seed, 2)
	offerDemand(h, 30*time.Second)
	victim := h.ids[h.rng.Intn(len(h.ids))]
	at := time.Duration(4+h.rng.Intn(4))*Interval - Interval/2
	collects := 1 + h.rng.Intn(2)
	h.At(at, "arm-stage-crash", func(h *Harness) { h.ArmStageCrashAfterCollects(victim, collects) })
	return h
}

// PartitionHeal cuts one seed-chosen stage off from the controller, lets
// the controller evict it and the stage freeze its limits, then heals
// the link. The stage must re-register and be folded back into the
// allocation within one control interval of the heal.
func PartitionHeal(seed int64) *Harness {
	h := smallCluster(seed, 3)
	offerDemand(h, 30*time.Second)
	victim := h.ids[h.rng.Intn(len(h.ids))]
	from := time.Duration(3+h.rng.Intn(3))*Interval + Interval/2
	to := from + time.Duration(8+h.rng.Intn(4))*Interval
	h.OutageStart, h.OutageEnd = from, to
	h.At(from, "partition", func(h *Harness) { h.Partition(victim) })
	h.At(to, "heal", func(h *Harness) { h.Heal(victim) })
	return h
}

// BatchedOutage drives the batched delta protocol through a partition/
// heal followed by a full controller outage and restart: faults must
// not wedge the fleet, and steady-state collects must stay incremental
// across both recoveries.
func BatchedOutage(seed int64) *Harness {
	h := smallCluster(seed, 3)
	offerDemand(h, 30*time.Second)
	victim := h.ids[h.rng.Intn(len(h.ids))]
	pFrom := time.Duration(3+h.rng.Intn(3))*Interval + Interval/2
	pTo := pFrom + time.Duration(4+h.rng.Intn(3))*Interval
	h.At(pFrom, "partition", func(h *Harness) { h.Partition(victim) })
	h.At(pTo, "heal", func(h *Harness) { h.Heal(victim) })
	h.OutageStart = pTo + time.Duration(2+h.rng.Intn(3))*Interval + Interval/2
	h.OutageEnd = h.OutageStart + time.Duration(4+h.rng.Intn(4))*Interval
	h.At(h.OutageStart, "crash-controller", func(h *Harness) { h.CrashController() })
	h.At(h.OutageEnd, "restart-controller", func(h *Harness) { h.RestartController() })
	return h
}

// FrameLoss drops Stage.Batch reply frames on seed-chosen nodes
// at seed-chosen rounds: each loss leaves the stage's delta generation
// ahead of the controller's acknowledgement, forcing a full-snapshot
// resync on the next exchange while the fleet keeps its allocations.
func FrameLoss(seed int64) *Harness {
	h := smallCluster(seed, 0)
	offerDemand(h, 30*time.Second)
	drops := 2 + h.rng.Intn(3)
	for i := 0; i < drops; i++ {
		victim := h.ids[h.rng.Intn(len(h.ids))]
		at := time.Duration(3+h.rng.Intn(20))*Interval + Interval/2
		h.At(at, "drop-reply", func(h *Harness) { h.DropNextBatchReply(victim) })
	}
	return h
}
