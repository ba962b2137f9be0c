package chaos

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"padll/internal/control"
	"padll/internal/rpcio"
	"padll/internal/sim"
)

// probeRates snapshots every live stage's managed rate at time at.
func probeRates(s *Scenario, at time.Duration, into map[string]float64) {
	s.Schedule(at, "", func(c *sim.Cluster) {
		for _, id := range stageIDs {
			if n := c.Node(id); !n.Crashed() {
				into[id] = managedRate(n)
			}
		}
	})
}

func managedRate(n *sim.Node) float64 { return sim.RuleRate(n.Stg, control.ControlRuleID) }

func TestControllerCrashFreezesAndReconciles(t *testing.T) {
	h := ControllerCrashMidRun(2022)
	frozen := map[string]float64{}
	during := map[string]float64{}
	after := map[string]float64{}
	// Just after the crash fires, record what each stage enforces; deep
	// into the outage it must be byte-for-byte the same (frozen, not
	// decayed to zero and not reset to unlimited).
	probeRates(h, h.OutageStart+sim.Interval, frozen)
	probeRates(h, h.OutageEnd-sim.Interval/2, during)
	// One full control interval after the restart, every stage must be
	// re-registered and re-tuned.
	probeRates(h, h.OutageEnd+sim.Interval+sim.Interval/2, after)
	h.Run()

	if len(frozen) != 4 {
		t.Fatalf("probe saw %d stages, want 4", len(frozen))
	}
	for id, rate := range frozen {
		if rate <= 0 {
			t.Errorf("stage %s enforcing rate %v during outage; limits must stay finite", id, rate)
		}
		if during[id] != rate {
			t.Errorf("stage %s drifted during the outage: %v -> %v (limits must freeze)", id, rate, during[id])
		}
	}
	// The crash cut the push phase short: the stages the controller
	// reached before dying froze at the raised per-stage rates, the rest
	// at the old ones.
	oldRate := map[string]float64{"job1": 15_000, "job2": 25_000}
	newRate := map[string]float64{"job1": raisedJob1 / 2, "job2": raisedJob2 / 2}
	var pushed, missed int
	for id, rate := range frozen {
		switch job := h.Node(id).Job; rate {
		case newRate[job]:
			pushed++
		case oldRate[job]:
			missed++
		default:
			t.Errorf("stage %s froze at %v, neither its old nor its raised rate", id, rate)
		}
	}
	if pushed == 0 || missed == 0 {
		t.Errorf("no partial push observed: %d stages at the raised rate, %d at the old", pushed, missed)
	}
	// Reconciled: the restarted controller finishes the rollout.
	for id, rate := range after {
		if want := newRate[h.Node(id).Job]; rate != want {
			t.Errorf("stage %s not reconciled after restart: rate %v, want %v", id, rate, want)
		}
	}
	log := h.Log()
	for _, want := range []string{
		"controller crashed",
		"degraded: controller unreachable, limits frozen",
		"controller restarted (empty registry)",
		"re-registered after",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
	// Degraded time must be accounted on every stage.
	for _, id := range stageIDs {
		if h.Node(id).Stg.DegradedFor() <= 0 {
			t.Errorf("stage %s has no degraded time after an outage", id)
		}
	}
}

func TestReconcileWithinOneInterval(t *testing.T) {
	h := ControllerCrashMidRun(7)
	h.Run()
	log := h.Log()
	// Find the restart line and assert every stage re-registers before
	// one full interval has elapsed after it.
	restartAt := -1 * time.Second
	var reRegistered int
	for _, line := range strings.Split(log, "\n") {
		ts, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		at, err := time.ParseDuration(strings.TrimPrefix(strings.TrimSpace(ts), "t=+"))
		if err != nil {
			continue
		}
		rest = strings.TrimSpace(rest)
		if strings.Contains(rest, "controller restarted") {
			restartAt = at
		}
		if strings.Contains(rest, "re-registered") {
			if restartAt < 0 {
				t.Fatalf("re-registration before any restart: %s", line)
			}
			if at-restartAt > sim.Interval {
				t.Errorf("stage reconciled %v after restart, want <= %v: %s", at-restartAt, sim.Interval, line)
			}
			reRegistered++
		}
	}
	if restartAt < 0 {
		t.Fatalf("no restart in log:\n%s", log)
	}
	if reRegistered != 4 {
		t.Errorf("%d stages re-registered, want 4\n%s", reRegistered, log)
	}
}

func TestStageCrashMidCollectEvictsAndRedistributes(t *testing.T) {
	h := StageCrashMidCollect(99)
	h.Run()
	log := h.Log()
	// Exactly one stage is down, reported once by the round that found
	// it dead, and dropped; its job's survivor must now hold the job's
	// whole grant (job share split by 1, not 2).
	var victim *sim.Node
	for _, id := range stageIDs {
		if h.Node(id).Crashed() {
			if victim != nil {
				t.Fatal("more than one crashed stage")
			}
			victim = h.Node(id)
		}
	}
	if victim == nil {
		t.Fatalf("no stage crashed:\n%s", log)
	}
	if got := strings.Count(log, "stage "+victim.ID+" control error"); got != 1 {
		t.Errorf("the crashed stage was reported %d times, want once:\n%s", got, log)
	}
	var survivor *sim.Node
	for _, id := range stageIDs {
		n := h.Node(id)
		if n.Job == victim.Job && n != victim {
			survivor = n
		}
	}
	// Fixed rates: job1 is granted its 30k reservation, job2 its 50k.
	// The survivor holds the full job grant once the corpse is dropped.
	wantJob := map[string]float64{"job1": 30_000, "job2": 50_000}[victim.Job]
	if got := managedRate(survivor); math.Abs(got-wantJob) > 1 {
		t.Errorf("survivor %s rate = %v, want the job's full %v", survivor.ID, got, wantJob)
	}
	if got := len(h.Controller().Stages()); got != 3 {
		t.Errorf("%d stages registered after the crash, want 3", got)
	}
}

func TestPartitionHealReintegrates(t *testing.T) {
	h := PartitionHeal(5)
	h.Run()
	log := h.Log()
	for _, want := range []string{"partitioned", "degraded: controller unreachable", "healed", "re-registered"} {
		if !strings.Contains(log, want) {
			t.Fatalf("log missing %q:\n%s", want, log)
		}
	}
	// After healing, all four stages are registered again and each
	// holds a managed per-stage rate (job grant split by two again).
	if got := len(h.Controller().Stages()); got != 4 {
		t.Errorf("%d stages registered after heal, want 4", got)
	}
	for _, id := range stageIDs {
		// Fixed rates split per stage: job1 30k/2, job2 50k/2.
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[h.Node(id).Job]
		if got := managedRate(h.Node(id)); math.Abs(got-want) > 1 {
			t.Errorf("stage %s rate = %v, want %v", id, got, want)
		}
	}
}

// TestSameSeedRunsAreByteIdentical: a scenario's log is a function of
// its seed — two runs agree byte for byte, and the seed-42 run agrees
// with the log committed under testdata/golden, so a change that moves
// any scenario's behaviour fails here. A missing golden file is written
// from this run, and the test fails once, asking for a rerun.
func TestSameSeedRunsAreByteIdentical(t *testing.T) {
	for name, mk := range map[string]func(int64) *Scenario{
		"controller-crash": ControllerCrashMidRun,
		"stage-crash":      StageCrashMidCollect,
		"partition-heal":   PartitionHeal,
		"batched-outage":   BatchedOutage,
		"frame-loss":       FrameLoss,
	} {
		a := mk(42)
		a.Run()
		b := mk(42)
		b.Run()
		if a.Log() != b.Log() {
			t.Errorf("%s: same seed produced different event logs:\n--- run 1\n%s\n--- run 2\n%s", name, a.Log(), b.Log())
		}
		c := mk(43)
		c.Run()
		if a.Log() == c.Log() {
			t.Errorf("%s: different seeds produced identical logs — scenario ignores its seed", name)
		}
		checkGolden(t, name, a.Log())
	}
}

// checkGolden compares log with testdata/golden/<name>.log, writing the
// file when it does not exist yet.
func checkGolden(t *testing.T, name, log string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".log")
	want, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: wrote missing golden %s; rerun the test", name, path)
	case err != nil:
		t.Fatal(err)
	case string(want) != log:
		t.Errorf("%s: seed-42 log differs from %s:\n--- golden\n%s\n--- this run\n%s", name, path, want, log)
	}
}

// TestBatchedModeRecoversAndStaysIncremental runs the batched-protocol
// scenario end to end: faults must not wedge the cluster (every stage is
// back at its fixed share after the outage) and steady-state collects
// must actually ride the incremental path rather than silently falling
// back to full snapshots every round.
func TestBatchedModeRecoversAndStaysIncremental(t *testing.T) {
	h := BatchedOutage(2022)
	h.Run()

	for _, id := range stageIDs {
		n := h.Node(id)
		if n.Crashed() {
			continue
		}
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[n.Job]
		if got := managedRate(n); math.Abs(got-want) > 1 {
			t.Errorf("stage %s rate = %v after recovery, want %v", id, got, want)
		}
	}

	var deltas uint64
	for _, id := range stageIDs {
		fulls, ds := h.Node(id).Handle.CollectCounts()
		if fulls == 0 {
			t.Errorf("stage %s never took a full snapshot (first collect must be full)", id)
		}
		deltas += ds
	}
	if deltas == 0 {
		t.Error("no incremental collects happened — batched mode fell back to full snapshots every round")
	}

	log := h.Log()
	for _, want := range []string{"partition", "heal", "controller crashed", "controller restarted"} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestDroppedBatchReplyForcesFullResync injects the applied-but-
// unacknowledged failure: a Stage.Batch reply frame is lost after the
// stage applied the exchange, so the stage's delta generation runs
// ahead of the controller's acknowledgement. The loss kills the link,
// as a lost reply's deadline kills a TCP connection: the stage
// registers again, and its first collect on the new link is a full
// snapshot, the ones after it incremental — and the fleet must hold its
// allocations throughout.
func TestDroppedBatchReplyForcesFullResync(t *testing.T) {
	h, _ := smallCluster(7, 20*time.Second)
	offerDemand(h, 20*time.Second)
	var lost *rpcio.StageHandle
	h.Schedule(5*time.Second+sim.Interval/2, "drop-reply", func(c *sim.Cluster) {
		lost = c.Node("s1").Handle
		c.DropNextBatchReply("s1")
	})
	h.Run()

	select {
	case <-lost.Done():
	default:
		t.Error("the link whose reply was lost is still open")
	}
	fulls, deltas := h.Node("s1").Handle.CollectCounts()
	if h.Node("s1").Handle == lost || fulls != 1 || deltas == 0 {
		t.Errorf("s1's link after the loss took %d full and %d incremental snapshots, want a new link with 1 full, then deltas", fulls, deltas)
	}
	// Untouched peers must not have been forced to resync.
	if otherFulls, _ := h.Node("s3").Handle.CollectCounts(); otherFulls != 1 {
		t.Errorf("s3 took %d full snapshots, want exactly the initial one", otherFulls)
	}

	log := h.Log()
	if !strings.Contains(log, "armed to drop its next batch reply frame") {
		t.Errorf("log missing the drop-arm line:\n%s", log)
	}
	if !strings.Contains(log, "reply frame lost") {
		t.Errorf("log missing the controller-observed frame loss:\n%s", log)
	}

	// FixedRates: each job1 stage ends at reservation/stages.
	if got, want := managedRate(h.Node("s1")), 15_000.0; math.Abs(got-want) > 1 {
		t.Errorf("s1 rate after frame loss = %v, want %v", got, want)
	}
}

// TestReRegistrationNeverOverGrants drops a reply on s3, one of job2's
// two stages, and then on s5, job3's only stage. Each loss drops the
// victim in the round that lost the reply, and that round pushes its
// share elsewhere: to s4, and to no one (job3's allocation is released).
// The victim registers again before the next round, and must not be
// granted that share a second time. Between every two rounds, a job's
// stages together hold no more than its FixedRates grant, and the
// fleet no more than the cluster limit.
func TestReRegistrationNeverOverGrants(t *testing.T) {
	const horizon = 14 * time.Second
	h, _ := smallCluster(1, horizon)
	h.AddStage("s5", "job3", 20_000)
	offerDemand(h, horizon)
	h.Schedule(5*time.Second+sim.Interval/2, "drop-reply", func(c *sim.Cluster) { c.DropNextBatchReply("s3") })
	h.Schedule(9*time.Second+sim.Interval/2, "drop-reply", func(c *sim.Cluster) { c.DropNextBatchReply("s5") })
	grant := map[string]float64{"job1": 30_000, "job2": 50_000, "job3": 20_000}
	stagesOf := map[string][]string{"job1": {"s1", "s2"}, "job2": {"s3", "s4"}, "job3": {"s5"}}
	for at := sim.Interval + sim.Interval/2; at < horizon; at += sim.Interval {
		h.Schedule(at, "", func(c *sim.Cluster) {
			total := 0.0
			for job, ids := range stagesOf {
				held := 0.0
				for _, id := range ids {
					held += managedRate(c.Node(id))
				}
				if held > grant[job]+1e-6 {
					t.Errorf("+%v: job %s's stages hold %.0f, over its grant %.0f", at, job, held, grant[job])
				}
				total += held
			}
			if total > clusterLimit+1e-6 {
				t.Errorf("+%v: the fleet holds %.0f, over the cluster limit %d", at, total, clusterLimit)
			}
		})
	}
	h.Run()

	if n := strings.Count(h.Log(), "re-registered after"); n != 2 {
		t.Errorf("%d re-registrations, want one per lost reply:\n%s", n, h.Log())
	}
	// By the horizon both victims hold their shares again.
	for id, want := range map[string]float64{"s3": 25_000, "s4": 25_000, "s5": 20_000} {
		if got := managedRate(h.Node(id)); got != want {
			t.Errorf("%s holds %.0f at the horizon, want %.0f", id, got, want)
		}
	}
}

// TestFrameLossScenarioConverges runs the seed-randomized frame-loss
// scenario: every drop must surface as a controller-visible error and a
// re-registration, never as a wedged or misallocated fleet.
func TestFrameLossScenarioConverges(t *testing.T) {
	h := FrameLoss(2022)
	h.Run()
	for _, id := range stageIDs {
		n := h.Node(id)
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[n.Job]
		if got := managedRate(n); math.Abs(got-want) > 1 {
			t.Errorf("stage %s rate = %v after frame-loss run, want %v", id, got, want)
		}
	}
	log := h.Log()
	if lost, back := strings.Count(log, "reply frame lost"), strings.Count(log, "re-registered after"); lost == 0 || back != lost {
		t.Errorf("%d frames lost, %d re-registrations; want one for each lost frame:\n%s", lost, back, log)
	}
}

// TestCrashAndReconcileProperty: over 25 seeds, the controller dies at a
// seed-chosen round after a seed-chosen number of that round's pushes,
// and a fresh one boots after a seed-chosen outage. Through the outage
// every live stage's managed rate stays what it was when the controller
// died, and after the first round that follows its re-registration it
// equals the stage's share of the new controller's allocation.
func TestCrashAndReconcileProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s, rng := smallCluster(seed, horizon)
		offerDemand(s, horizon)
		crashAt := time.Duration(2+rng.Intn(10)) * sim.Interval
		pushes := rng.Intn(4) // of the round's four retunes
		restartAt := crashAt + time.Duration(2+rng.Intn(8))*sim.Interval + time.Duration(rng.Intn(2))*sim.Interval/2
		// The crash closes every link when its round returns; each stage
		// re-registers at its first attempt on the retry schedule after
		// the restart, and the next round reconciles it.
		reconciledAt := sim.ReconciledAt(crashAt, restartAt)
		raise := []float64{float64(31+rng.Intn(20)) * 1000, float64(51+rng.Intn(20)) * 1000}
		s.Schedule(crashAt-sim.Interval/2, "arm", func(c *sim.Cluster) {
			c.SetReservation("job1", raise[0])
			c.SetReservation("job2", raise[1])
			c.ArmMidRoundCrash(pushes)
		})
		s.Schedule(restartAt, "restart", (*sim.Cluster).RestartController)
		// Events at one instant run in order, all before its wakes.
		s.Schedule(restartAt, "", func(c *sim.Cluster) {
			if got := c.Controller().Stages(); len(got) != 0 {
				t.Errorf("seed %d: restarted controller kept %d registrations", seed, len(got))
			}
		})
		frozen := map[string]float64{}
		probeRates(s, crashAt+sim.Interval/2, frozen)
		for at := crashAt + sim.Interval; at < restartAt; at += sim.Interval / 2 {
			s.Schedule(at, "", func(c *sim.Cluster) {
				for _, id := range stageIDs {
					if got := managedRate(c.Node(id)); got != frozen[id] {
						t.Errorf("seed %d: stage %s moved from %v to %v at %v, mid-outage", seed, id, frozen[id], got, at)
					}
				}
			})
		}
		var reconciled bool
		s.Schedule(reconciledAt+sim.Interval/2, "", func(c *sim.Cluster) {
			reconciled = true
			alloc := c.Controller().LastAllocation()
			for _, id := range stageIDs {
				n := c.Node(id)
				if want := alloc[n.Job] / 2; n.Stg.Degraded() || managedRate(n) != want {
					t.Errorf("seed %d: stage %s (degraded %v) enforces %v after the first round since it re-registered, want %v",
						seed, id, n.Stg.Degraded(), managedRate(n), want)
				}
			}
		})
		s.Run()
		if !reconciled || !strings.Contains(s.Log(), "controller crashed") {
			t.Fatalf("seed %d: no crash or no reconciliation probe:\n%s", seed, s.Log())
		}
	}
}
