package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"padll/internal/posix"
)

func TestFig1MatchesPaperNumbers(t *testing.T) {
	r := Fig1(DefaultSeed)
	if r.Stats.MeanTotal < 150_000 || r.Stats.MeanTotal > 260_000 {
		t.Errorf("mean = %.0f, want ≈200K", r.Stats.MeanTotal)
	}
	if r.Stats.PeakTotal < 900_000 {
		t.Errorf("peak = %.0f, want ≈1M", r.Stats.PeakTotal)
	}
	if r.Hourly.Len() != 30*24 {
		t.Errorf("hourly samples = %d, want 720", r.Hourly.Len())
	}
	if !strings.Contains(r.Render(), "Fig. 1") {
		t.Error("render missing header")
	}
}

func TestFig2TopOpsAndShares(t *testing.T) {
	r := Fig2(DefaultSeed)
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 collected op types", len(r.Rows))
	}
	// Bars must be sorted descending and led by getattr.
	if r.Rows[0].Op != posix.OpGetAttr {
		t.Errorf("largest op = %v, want getattr", r.Rows[0].Op)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Total > r.Rows[i-1].Total {
			t.Errorf("rows not sorted at %d", i)
		}
	}
	if r.Top4Share < 0.96 {
		t.Errorf("top-4 share = %.3f, want ≈0.98", r.Top4Share)
	}
	// The top four must be the paper's four: open/close/getattr/rename.
	want := map[posix.Op]bool{posix.OpOpen: true, posix.OpClose: true, posix.OpGetAttr: true, posix.OpRename: true}
	for i := 0; i < 4; i++ {
		if !want[r.Rows[i].Op] {
			t.Errorf("top-4 contains %v", r.Rows[i].Op)
		}
	}
	if !strings.Contains(r.Render(), "top-4 share") {
		t.Error("render missing summary")
	}
}

// checkFig4Shape asserts the properties §IV-A reports for every panel.
func checkFig4Shape(t *testing.T, r Fig4Result) {
	t.Helper()
	// "padll is able to control the rate of all operations, never
	// exceeding the configured limits" (up to bucket burst slack).
	if r.MaxOverLimit > 1.15 {
		t.Errorf("[%s] padll exceeded the limit by %.2fx", r.Name, r.MaxOverLimit)
	}
	// "periods where padll achieves higher throughput than baseline"
	// (backlog catch-up after aggressive limiting).
	if r.CatchUpTicks == 0 {
		t.Errorf("[%s] no catch-up overshoot observed", r.Name)
	}
	// During generous steps padll follows the baseline curve: its mean
	// sits within a reasonable factor of the baseline mean.
	if r.Padll.Mean() < r.Baseline.Mean()*0.5 {
		t.Errorf("[%s] padll mean %.0f far below baseline %.0f", r.Name, r.Padll.Mean(), r.Baseline.Mean())
	}
	// Passthrough tracks baseline in the fluid model.
	if math.Abs(r.Passthrough.Mean()-r.Baseline.Mean()) > r.Baseline.Mean()*0.02 {
		t.Errorf("[%s] passthrough mean %.0f vs baseline %.0f", r.Name, r.Passthrough.Mean(), r.Baseline.Mean())
	}
	// All work completes eventually (padll later than baseline).
	if r.PadllDone == 0 {
		t.Errorf("[%s] padll run never completed", r.Name)
	}
	if r.PadllDone < r.BaselineDone {
		t.Errorf("[%s] padll %v finished before baseline %v", r.Name, r.PadllDone, r.BaselineDone)
	}
}

func TestFig4PerOpPanels(t *testing.T) {
	for _, op := range []posix.Op{posix.OpOpen, posix.OpClose, posix.OpGetAttr} {
		r := Fig4PerOp(DefaultSeed, op)
		checkFig4Shape(t, r)
		if r.Name != op.String() {
			t.Errorf("panel name = %q", r.Name)
		}
	}
}

func TestFig4RenamePanel(t *testing.T) {
	// The paper reports "similar findings" for rename.
	checkFig4Shape(t, Fig4PerOp(DefaultSeed, posix.OpRename))
}

func TestFig4PerClassPanel(t *testing.T) {
	r := Fig4PerClass(DefaultSeed)
	checkFig4Shape(t, r)
	if r.Name != "metadata" {
		t.Errorf("panel name = %q", r.Name)
	}
	// The class workload aggregates four op types: its mean demand must
	// exceed any single op's.
	single := Fig4PerOp(DefaultSeed, posix.OpOpen)
	if r.MeanRate <= single.MeanRate {
		t.Errorf("class mean %.0f <= open mean %.0f", r.MeanRate, single.MeanRate)
	}
	if !strings.Contains(r.Render(), "metadata") {
		t.Error("render missing panel name")
	}
}

func TestFig5AllSetupsShape(t *testing.T) {
	results := Fig5All(DefaultSeed)
	if len(results) != 4 {
		t.Fatalf("setups = %d", len(results))
	}
	byName := map[Fig5Setup]Fig5Result{}
	for _, r := range results {
		byName[r.Setup] = r
	}

	base := byName[Fig5Baseline]
	// Baseline: volatile and bursty, periods over 400 KOps/s.
	if base.PeakAggregate < 400_000 {
		t.Errorf("baseline peak = %.0f, want bursts above 400K", base.PeakAggregate)
	}
	if len(base.Completion) != 4 {
		t.Errorf("baseline completions = %d, want 4", len(base.Completion))
	}

	static := byName[Fig5Static]
	// Static: burstiness eliminated — aggregate never far above 300K.
	if static.OverLimitFrac > 0.02 {
		t.Errorf("static over-cap fraction = %.3f", static.OverLimitFrac)
	}
	// Every job capped at 75K (+ slack).
	for id, s := range static.PerJob {
		if s.Max() > 75_000*1.15 {
			t.Errorf("static %s peak = %.0f, want <=75K", id, s.Max())
		}
	}
	// "All jobs finish in the same time as in Baseline": within a few
	// minutes of their baseline completion.
	for id, d := range static.Completion {
		bd := base.Completion[id]
		if d > bd+5*time.Minute {
			t.Errorf("static %s done %v vs baseline %v", id, d, bd)
		}
	}

	prio := byName[Fig5Priority]
	// Priority: job1 (40K) takes ≈20 min longer than baseline.
	j1Base, ok1 := base.Completion["job1"]
	j1Prio, ok2 := prio.Completion["job1"]
	if !ok1 || !ok2 {
		t.Fatalf("job1 completions missing: baseline %v prio %v", ok1, ok2)
	}
	extra := j1Prio - j1Base
	if extra < 10*time.Minute || extra > 35*time.Minute {
		t.Errorf("priority job1 extra time = %v, paper reports ≈20 min", extra)
	}
	// job4 (120K) must not be slower than job1's relative slowdown.
	if d4, ok := prio.Completion["job4"]; ok {
		if d4-base.Completion["job4"] > extra {
			t.Errorf("job4 slowed more than job1 despite higher priority")
		}
	} else {
		t.Error("priority job4 unfinished")
	}
	// Per-job caps hold.
	for i, id := range []string{"job1", "job2", "job3", "job4"} {
		if s, ok := prio.PerJob[id]; ok {
			if s.Max() > fig5Reservations[i]*1.15 {
				t.Errorf("priority %s peak %.0f above its %v rate", id, s.Max(), fig5Reservations[i])
			}
		}
	}

	prop := byName[Fig5Proportional]
	// Proportional sharing: all jobs finish within the 45-minute window.
	for _, id := range []string{"job1", "job2", "job3", "job4"} {
		d, ok := prop.Completion[id]
		if !ok {
			t.Errorf("proportional %s unfinished", id)
			continue
		}
		if d > 45*time.Minute {
			t.Errorf("proportional %s done at %v, want <45m", id, d)
		}
	}
	// Burstiness eliminated: cap respected.
	if prop.OverLimitFrac > 0.02 {
		t.Errorf("proportional over-cap fraction = %.3f", prop.OverLimitFrac)
	}
	// Proportional must beat Priority on job1 (leftover redistribution).
	if pd, ok := prop.Completion["job1"]; ok {
		if pd >= j1Prio {
			t.Errorf("proportional job1 %v not faster than priority %v", pd, j1Prio)
		}
	}
	for _, r := range results {
		if !strings.Contains(r.Render(), string(r.Setup)) {
			t.Errorf("render for %s missing setup name", r.Setup)
		}
	}
}

func TestFig4DataPanels(t *testing.T) {
	for _, write := range []bool{true, false} {
		r, err := Fig4Data(write)
		if err != nil {
			t.Fatal(err)
		}
		if r.BaselineRate <= 0 {
			t.Fatalf("[%s] baseline rate = %v", r.Mode, r.BaselineRate)
		}
		if len(r.StepMeans) != len(fig4DataLimitFactors) {
			t.Fatalf("[%s] step means = %v", r.Mode, r.StepMeans)
		}
		// A binding step (limit below the baseline) measures its limit: on
		// the simulated clock only the stage's burst and the transfers in
		// flight when the step ends stand between the two.
		for i, f := range fig4DataLimitFactors {
			if f < 1 && r.StepMeans[i] > r.Limits[i]*1.05 {
				t.Errorf("[%s] step %d measured %.0f vs limit %.0f", r.Mode, i+1, r.StepMeans[i], r.Limits[i])
			}
		}
		if !strings.Contains(r.Render(), r.Mode) {
			t.Error("render missing mode")
		}
	}
}

func TestDRFExtension(t *testing.T) {
	r := DRFExtension()
	if len(r.Jobs) != 3 {
		t.Fatal("jobs missing")
	}
	// No resource oversubscribed.
	var meta, data float64
	for i := range r.Jobs {
		meta += r.MetadataAlloc[i]
		data += r.DataAlloc[i]
	}
	if meta > r.MetadataCapacity*1.001 || data > r.DataCapacity*1.001 {
		t.Errorf("oversubscribed: meta %.0f/%.0f data %.0f/%.0f", meta, r.MetadataCapacity, data, r.DataCapacity)
	}
	// The bandwidth-heavy and metadata-heavy jobs end with comparable
	// dominant shares (the DRF fairness property).
	if math.Abs(r.DominantShares[0]-r.DominantShares[1]) > 0.15 {
		t.Errorf("dominant shares diverge: %v", r.DominantShares)
	}
	if !strings.Contains(r.Render(), "Dominant Resource Fairness") {
		t.Error("render missing header")
	}
}

func TestMDSProtection(t *testing.T) {
	r := MDSProtection(DefaultSeed)
	// Both setups serve comparable total work (the MDS is the bottleneck)
	// but padll keeps admissions at the cap while baseline slams it.
	if r.Padll.Completions < r.Baseline.Completions {
		t.Errorf("padll finished %d jobs vs baseline %d", r.Padll.Completions, r.Baseline.Completions)
	}
	if r.Padll.MeanAggregate > r.MDSCapacity*1.05 {
		t.Errorf("padll mean admitted %.0f above MDS capacity %.0f", r.Padll.MeanAggregate, r.MDSCapacity)
	}
	// The protection claim (§IV-C / §I): without control the MDS runs
	// saturated most of the time; under padll it keeps headroom.
	if r.Baseline.SaturatedFrac < 0.5 {
		t.Errorf("baseline saturated only %.0f%% of the time; scenario too easy", r.Baseline.SaturatedFrac*100)
	}
	if r.Padll.SaturatedFrac > 0.10 {
		t.Errorf("padll left the MDS saturated %.0f%% of the time", r.Padll.SaturatedFrac*100)
	}
	if r.Padll.SaturatedFrac > r.Baseline.SaturatedFrac/4 {
		t.Errorf("padll saturation %.2f not clearly below baseline %.2f",
			r.Padll.SaturatedFrac, r.Baseline.SaturatedFrac)
	}
	if !strings.Contains(r.Render(), "MDS") {
		t.Error("render missing header")
	}
}

func TestBurstAblationMonotone(t *testing.T) {
	rows := BurstAblation(DefaultSeed)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger bursts must never reduce the worst-case overshoot.
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxOverLimit < rows[i-1].MaxOverLimit-0.05 {
			t.Errorf("overshoot not monotone: %v", rows)
		}
	}
	for _, r := range rows {
		if r.Completion == 0 {
			t.Errorf("burst %v: workload never completed", r.BurstFactor)
		}
	}
}

func TestGranularityAblation(t *testing.T) {
	r := GranularityAblation(DefaultSeed)
	if r.PerClassDone == 0 || r.PerOpDone == 0 {
		t.Fatalf("unfinished: %+v", r)
	}
	// A single class queue is work-conserving across the op mix; the
	// static per-op split strands budget and must not finish faster.
	if r.PerOpDone < r.PerClassDone {
		t.Errorf("per-op split %v finished before per-class %v", r.PerOpDone, r.PerClassDone)
	}
	if !strings.Contains(RenderAblations(BurstAblation(DefaultSeed), r), "granularity") {
		t.Error("render missing section")
	}
}

func TestMechanismAblation(t *testing.T) {
	rows, err := MechanismAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]MechanismRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	// Shaping: no errors, but much slower than unthrottled.
	if byName["shape"].Errors != 0 {
		t.Errorf("shape rejected %d requests", byName["shape"].Errors)
	}
	if byName["shape"].Elapsed < 2*byName["unthrottled"].Elapsed {
		t.Errorf("shape (%v) not clearly slower than unthrottled (%v)",
			byName["shape"].Elapsed, byName["unthrottled"].Elapsed)
	}
	// Policing: rejects requests, but completes far sooner than shaping.
	if byName["drop"].Errors == 0 {
		t.Error("drop rejected nothing despite a binding limit")
	}
	if byName["drop"].Elapsed > byName["shape"].Elapsed {
		t.Errorf("drop (%v) slower than shape (%v)", byName["drop"].Elapsed, byName["shape"].Elapsed)
	}
	if !strings.Contains(RenderMechanism(rows), "mechanism") {
		t.Error("render missing header")
	}
}

func TestAdaptiveLimitTracksDegradation(t *testing.T) {
	r := AdaptiveLimit(DefaultSeed)
	// The fixed cap over-admits after degradation: the MDS stays pinned.
	if r.Fixed.SaturatedFracAfter < 0.3 {
		t.Errorf("fixed cap post-degradation saturation = %.2f; scenario too easy", r.Fixed.SaturatedFracAfter)
	}
	// The AIMD adapter backs off and keeps headroom.
	if r.Adaptive.SaturatedFracAfter > r.Fixed.SaturatedFracAfter/2 {
		t.Errorf("adaptive saturation %.2f not clearly below fixed %.2f",
			r.Adaptive.SaturatedFracAfter, r.Fixed.SaturatedFracAfter)
	}
	// The limit trajectory must dip after the degradation.
	if r.LimitSeries == nil || r.LimitSeries.Min() > r.DegradedCapacity*1.2 {
		t.Errorf("adaptive limit never tracked down to the degraded capacity: min=%v", r.LimitSeries.Min())
	}
	if !strings.Contains(r.Render(), "AIMD") {
		t.Error("render missing adapter row")
	}
}

// Seed robustness: the paper-level conclusions must hold across seeds,
// not just for the default one.
func TestFig5ConclusionsAcrossSeeds(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{7, 99, 31337} {
		base := Fig5(seed, Fig5Baseline)
		static := Fig5(seed, Fig5Static)
		prio := Fig5(seed, Fig5Priority)
		prop := Fig5(seed, Fig5Proportional)

		// Static eliminates burstiness.
		if static.OverLimitFrac > 0.02 {
			t.Errorf("seed %d: static over-cap fraction %.3f", seed, static.OverLimitFrac)
		}
		// Static stays close to baseline completion.
		for id, d := range static.Completion {
			if bd, ok := base.Completion[id]; ok && d > bd+8*time.Minute {
				t.Errorf("seed %d: static %s %v vs baseline %v", seed, id, d, bd)
			}
		}
		// Priority: job1 strictly slower than under proportional sharing.
		j1p, okP := prio.Completion["job1"]
		j1s, okS := prop.Completion["job1"]
		if !okP || !okS {
			t.Errorf("seed %d: job1 unfinished (prio %v prop %v)", seed, okP, okS)
			continue
		}
		if j1s >= j1p {
			t.Errorf("seed %d: proportional job1 %v not faster than priority %v", seed, j1s, j1p)
		}
		// Priority job1 clearly delayed vs baseline.
		if j1p-base.Completion["job1"] < 5*time.Minute {
			t.Errorf("seed %d: priority job1 delay only %v", seed, j1p-base.Completion["job1"])
		}
	}
}

func TestFig1AcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{7, 99, 31337} {
		r := Fig1(seed)
		if r.Stats.MeanTotal < 170_000 || r.Stats.MeanTotal > 230_000 {
			t.Errorf("seed %d: mean %.0f outside ≈200K band", seed, r.Stats.MeanTotal)
		}
		if r.Stats.PeakTotal < 900_000 {
			t.Errorf("seed %d: peak %.0f", seed, r.Stats.PeakTotal)
		}
		if r.Stats.SustainedOver400K < 120 {
			t.Errorf("seed %d: sustained run %d min", seed, r.Stats.SustainedOver400K)
		}
	}
}

func TestE7ChaosReplayInvariants(t *testing.T) {
	r := ChaosReplay(DefaultSeed)
	// Fail-secure: during the outage every job keeps admitting at its
	// frozen Priority allocation, within the paper-style 5% band.
	if r.OutageMaxDeviation > 0.05 {
		t.Errorf("outage deviation = %.2f%%, want <= 5%%", r.OutageMaxDeviation*100)
	}
	for i, resv := range chaosReservations {
		id := fmt.Sprintf("job%d", i+1)
		if got := r.FrozenRates[id]; got != resv {
			t.Errorf("%s frozen at %v, want its reservation %v", id, got, resv)
		}
		if deg := r.DegradedSeconds[id+"-stage0"]; deg < (r.RecoverAt - r.CrashAt).Seconds() {
			t.Errorf("%s accounted %vs degraded, want >= %vs", id, deg, (r.RecoverAt - r.CrashAt).Seconds())
		}
	}
	if !r.Reconciled {
		t.Error("stages not reconciled within one control interval of restart")
	}
	// The run is deterministic: a second invocation reproduces it.
	r2 := ChaosReplay(DefaultSeed)
	if r.Render() != r2.Render() {
		t.Error("ChaosReplay is not deterministic across runs")
	}
}

func TestFleetScaleProtocolWins(t *testing.T) {
	// Small point only: the full sweep is held by the e13_fleet golden.
	row, err := fleetPoint(16)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: one Batch per stage, and every unchanged-rate push
	// skipped outright.
	if row.RPCs != 16 || row.PushesSkipped != 16 {
		t.Errorf("steady round = %d rpcs / %d skipped pushes, want 16 / 16", row.RPCs, row.PushesSkipped)
	}
	// Incremental collects: a steady round moves a small fraction of
	// what the full-snapshot first round did.
	if row.WireBytes == 0 || row.WireBytes*4 > row.FirstRoundBytes {
		t.Errorf("steady round moved %d B vs %d B for the full-snapshot round, want < 1/4", row.WireBytes, row.FirstRoundBytes)
	}
	ops, calls, err := fleetManagementRound()
	if err != nil {
		t.Fatal(err)
	}
	if ops != 6 || calls != 1 {
		t.Errorf("management round = %d ops in %d RPCs, want 6 in 1", ops, calls)
	}
	r := FleetResult{Rows: []FleetRow{row}, MgmtOps: ops, MgmtRPCs: calls}
	out := r.Render()
	if !strings.Contains(out, "fleet-scale wire protocol") || !strings.Contains(out, "6 operations in 1 RPC") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

// Stage and collector identifiers are drawn at random but have a fixed
// varint width, so two fleets built the same way move the same bytes.
func TestFleetWireBytesRepeat(t *testing.T) {
	a, err := fleetPoint(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetPoint(64)
	if err != nil {
		t.Fatal(err)
	}
	if a.WireBytes != b.WireBytes || a.FirstRoundBytes != b.FirstRoundBytes {
		t.Errorf("two 64-stage fleets moved %d/%d B and %d/%d B (steady/first round)",
			a.WireBytes, a.FirstRoundBytes, b.WireBytes, b.FirstRoundBytes)
	}
}
