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
)

const runFor = 30 * time.Second

// probeRates snapshots every live stage's managed rate at time at.
func probeRates(h *Harness, at time.Duration, into map[string]float64) {
	h.At(at, "", func(h *Harness) {
		for _, id := range h.ids {
			n := h.nodes[id]
			if n.crashed.Load() {
				continue
			}
			into[id] = RuleRate(n.Stg, control.ControlRuleID)
		}
	})
}

func TestControllerCrashFreezesAndReconciles(t *testing.T) {
	h := ControllerCrashMidRun(2022)
	frozen := map[string]float64{}
	during := map[string]float64{}
	after := map[string]float64{}
	// Just after the crash fires, record what each stage enforces; deep
	// into the outage it must be byte-for-byte the same (frozen, not
	// decayed to zero and not reset to unlimited).
	probeRates(h, h.OutageStart+h.Interval(), frozen)
	probeRates(h, h.OutageEnd-h.Interval()/2, during)
	// One full control interval after the restart, every stage must be
	// re-registered and re-tuned.
	probeRates(h, h.OutageEnd+h.Interval()+h.Interval()/2, after)
	h.Run(runFor)

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
	for _, id := range h.ids {
		if h.Node(id).Stg.DegradedFor() <= 0 {
			t.Errorf("stage %s has no degraded time after an outage", id)
		}
	}
}

func TestReconcileWithinOneInterval(t *testing.T) {
	h := ControllerCrashMidRun(7)
	h.Run(runFor)
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
			if at-restartAt > h.Interval() {
				t.Errorf("stage reconciled %v after restart, want <= %v: %s", at-restartAt, h.Interval(), line)
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
	h.Run(runFor)
	log := h.Log()
	if !strings.Contains(log, "evicted by controller") {
		t.Fatalf("crashed stage never evicted:\n%s", log)
	}
	// Exactly one stage is down; its job's survivor must now hold the
	// job's whole grant (job share split by 1, not 2).
	var victim *StageNode
	for _, id := range h.ids {
		if h.Node(id).crashed.Load() {
			if victim != nil {
				t.Fatal("more than one crashed stage")
			}
			victim = h.Node(id)
		}
	}
	if victim == nil {
		t.Fatalf("no stage crashed:\n%s", log)
	}
	var survivor *StageNode
	for _, id := range h.ids {
		n := h.Node(id)
		if n.Job == victim.Job && n != victim {
			survivor = n
		}
	}
	// Fixed rates: job1 is granted its 30k reservation, job2 its 50k.
	// The survivor holds the full job grant once the corpse is swept.
	wantJob := map[string]float64{"job1": 30_000, "job2": 50_000}[victim.Job]
	if got := RuleRate(survivor.Stg, control.ControlRuleID); math.Abs(got-wantJob) > 1 {
		t.Errorf("survivor %s rate = %v, want the job's full %v", survivor.ID, got, wantJob)
	}
	if got := len(h.Controller().Stages()); got != 3 {
		t.Errorf("%d stages registered after eviction, want 3", got)
	}
}

func TestPartitionHealReintegrates(t *testing.T) {
	h := PartitionHeal(5)
	h.Run(runFor)
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
	for _, id := range h.ids {
		// Fixed rates split per stage: job1 30k/2, job2 50k/2.
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[h.Node(id).Job]
		if got := RuleRate(h.Node(id).Stg, control.ControlRuleID); math.Abs(got-want) > 1 {
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
	for name, mk := range map[string]func(int64) *Harness{
		"controller-crash": ControllerCrashMidRun,
		"stage-crash":      StageCrashMidCollect,
		"partition-heal":   PartitionHeal,
		"batched-outage":   BatchedOutage,
		"frame-loss":       FrameLoss,
	} {
		a := mk(42)
		a.Run(runFor)
		b := mk(42)
		b.Run(runFor)
		if a.Log() != b.Log() {
			t.Errorf("%s: same seed produced different event logs:\n--- run 1\n%s\n--- run 2\n%s", name, a.Log(), b.Log())
		}
		c := mk(43)
		c.Run(runFor)
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
	h.Run(runFor)

	for _, id := range h.ids {
		n := h.Node(id)
		if n.crashed.Load() {
			continue
		}
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[n.Job]
		if got := RuleRate(n.Stg, control.ControlRuleID); math.Abs(got-want) > 1 {
			t.Errorf("stage %s rate = %v after recovery, want %v", id, got, want)
		}
	}

	var deltas uint64
	for _, id := range h.ids {
		fulls, ds := h.Node(id).conn.handle.CollectCounts()
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
// ahead of the controller's acknowledgement. The delta protocol must
// answer the next exchange with a full-snapshot resync — and the fleet
// must hold its allocations throughout.
func TestDroppedBatchReplyForcesFullResync(t *testing.T) {
	h := smallCluster(7, 0)
	offerDemand(h, 20*time.Second)
	h.At(5*time.Second+h.Interval()/2, "drop-reply", func(h *Harness) { h.DropNextBatchReply("s1") })
	h.Run(20 * time.Second)

	fulls, deltas := h.Node("s1").conn.handle.CollectCounts()
	if fulls < 2 {
		t.Errorf("s1 took %d full snapshots, want >= 2 (initial + post-drop resync)", fulls)
	}
	if deltas == 0 {
		t.Error("s1 never collected incrementally")
	}
	// Untouched peers must not have been forced to resync.
	if otherFulls, _ := h.Node("s3").conn.handle.CollectCounts(); otherFulls != 1 {
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
	if got, want := RuleRate(h.Node("s1").Stg, control.ControlRuleID), 15_000.0; math.Abs(got-want) > 1 {
		t.Errorf("s1 rate after frame loss = %v, want %v", got, want)
	}
}

// TestFrameLossScenarioConverges runs the seed-randomized frame-loss
// scenario: every drop must surface as a controller-visible error and a
// resync, never as a wedged or misallocated fleet.
func TestFrameLossScenarioConverges(t *testing.T) {
	h := FrameLoss(2022)
	h.Run(runFor)
	for _, id := range h.ids {
		n := h.Node(id)
		want := map[string]float64{"job1": 15_000, "job2": 25_000}[n.Job]
		if got := RuleRate(n.Stg, control.ControlRuleID); math.Abs(got-want) > 1 {
			t.Errorf("stage %s rate = %v after frame-loss run, want %v", id, got, want)
		}
	}
	if !strings.Contains(h.Log(), "reply frame lost") {
		t.Errorf("scenario never actually lost a frame:\n%s", h.Log())
	}
}
