package experiments

import (
	"fmt"
	"strings"
	"time"

	"padll/internal/control"
	"padll/internal/pfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/sim"
)

// ---- E8: DRF control algorithm (§VI future work) ----

// DRFJob describes one job's two-resource demand: metadata ops/s and
// data bandwidth (bytes/s).
type DRFJob struct {
	ID             string
	MetadataDemand float64
	DataDemand     float64
}

// DRFResult reports the DRF allocation.
type DRFResult struct {
	MetadataCapacity float64
	DataCapacity     float64
	Jobs             []DRFJob
	// MetadataAlloc / DataAlloc are per-job allocations, indexed as Jobs.
	MetadataAlloc []float64
	DataAlloc     []float64
	// DominantShares are each job's dominant resource share after
	// allocation; DRF equalizes these across unsatisfied jobs.
	DominantShares []float64
}

// DRFExtension runs Dominant Resource Fairness over a mixed workload:
// a metadata-heavy DL-training job, a bandwidth-heavy checkpointing job,
// and a balanced analytics job, sharing one MDS and one OSS farm.
func DRFExtension() DRFResult {
	res := DRFResult{
		MetadataCapacity: 300_000,
		DataCapacity:     40 << 30, // 40 GiB/s aggregate OSS bandwidth
		Jobs: []DRFJob{
			{ID: "dl-training", MetadataDemand: 400_000, DataDemand: 4 << 30},
			{ID: "checkpoint", MetadataDemand: 20_000, DataDemand: 64 << 30},
			{ID: "analytics", MetadataDemand: 120_000, DataDemand: 16 << 30},
		},
	}
	demands := make([][]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		demands[i] = []float64{j.MetadataDemand, j.DataDemand}
	}
	allocs := control.DRFAllocate([]float64{res.MetadataCapacity, res.DataCapacity}, demands)
	for i := range res.Jobs {
		res.MetadataAlloc = append(res.MetadataAlloc, allocs[i][0])
		res.DataAlloc = append(res.DataAlloc, allocs[i][1])
		ms := allocs[i][0] / res.MetadataCapacity
		ds := allocs[i][1] / res.DataCapacity
		if ds > ms {
			ms = ds
		}
		res.DominantShares = append(res.DominantShares, ms)
	}
	return res
}

// Render formats the DRF table.
func (r DRFResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VI extension — Dominant Resource Fairness over metadata + bandwidth\n")
	fmt.Fprintf(&b, "  capacities: %d KOps/s metadata, %.0f GiB/s data\n",
		int(r.MetadataCapacity/1000), r.DataCapacity/(1<<30))
	fmt.Fprintf(&b, "  %-12s %16s %16s %10s\n", "job", "metadata alloc", "data alloc", "dom.share")
	for i, j := range r.Jobs {
		fmt.Fprintf(&b, "  %-12s %12.0fK/s %13.1fGiB/s %9.2f%%\n",
			j.ID, r.MetadataAlloc[i]/1000, r.DataAlloc[i]/(1<<30), r.DominantShares[i]*100)
	}
	return b.String()
}

// ---- E10: MDS protection under saturation (§IV-C discussion) ----

// MDSProtectionResult compares an unprotected cluster against PADLL with
// proportional sharing when the aggregate metadata demand saturates the
// MDS — the paper's motivating scenario (jobs harming the PFS and each
// other) and the §IV-C expectation that holistic control helps when the
// PFS is saturated.
type MDSProtectionResult struct {
	// MDSCapacity is the metadata server's service capacity (cost
	// units/s).
	MDSCapacity float64
	// Baseline/Padll report each setup's outcome.
	Baseline MDSProtectionOutcome
	Padll    MDSProtectionOutcome
}

// MDSProtectionOutcome is one setup's result.
type MDSProtectionOutcome struct {
	// SaturatedFrac is the fraction of time the MDS had no spare
	// capacity — the regime where it harms every other tenant of the
	// file system (unresponsiveness, §I).
	SaturatedFrac float64
	// Completions counts jobs finished within the horizon.
	Completions int
	// MeanAggregate is the admitted metadata rate.
	MeanAggregate float64
	// UnitsServed is the total MDS work done.
	UnitsServed float64
}

// MDSProtection runs the saturation scenario.
func MDSProtection(seed int64) MDSProtectionResult {
	const capacity = 180_000 // below the 4-job aggregate mean (~268K)
	run := func(protected bool) MDSProtectionOutcome {
		cfg := sim.Config{Duration: fig5Horizon}
		if protected {
			cfg.Controller = []control.Option{
				control.WithAlgorithm(control.ProportionalShare{}),
				control.WithClusterLimit(capacity * 0.95)}
		}
		c := sim.NewCluster(cfg)
		backend := pfs.New(c.Clock(), pfs.Config{
			MDSCapacity: capacity,
			MDSBurst:    capacity / 10,
		})
		c.AttachPFS(backend)
		tr := fig5Workload(seed)
		for i := 0; i < fig5Jobs; i++ {
			c.AddJob(sim.JobSpec{
				ID:          fmt.Sprintf("job%d", i+1),
				Arrival:     time.Duration(i) * fig5ArrivalGap,
				Trace:       tr,
				Accel:       60,
				Reservation: fig5Reservations[i] * capacity / fig5ClusterLimit,
			})
		}
		rep := c.Run()
		out := MDSProtectionOutcome{
			Completions:   len(rep.Completion),
			MeanAggregate: rep.Aggregate.Mean(),
			SaturatedFrac: rep.PFSSaturatedFrac,
		}
		if rep.PFSStats != nil {
			out.UnitsServed = rep.PFSStats.MetadataUnits
		}
		return out
	}
	return MDSProtectionResult{
		MDSCapacity: capacity,
		Baseline:    run(false),
		Padll:       run(true),
	}
}

// Render formats the protection comparison.
func (r MDSProtectionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§IV-C extension — protecting a saturating MDS (capacity %d KOps/s)\n", int(r.MDSCapacity/1000))
	row := func(name string, o MDSProtectionOutcome) {
		fmt.Fprintf(&b, "  %-22s jobs done %d/4, mean admitted %.0f KOps/s, MDS saturated %.0f%% of the time\n",
			name, o.Completions, o.MeanAggregate/1000, o.SaturatedFrac*100)
	}
	row("baseline (no control)", r.Baseline)
	row("padll (prop. share)", r.Padll)
	return b.String()
}

// ---- E9: ablations ----

// BurstAblationRow reports one burst-size choice.
type BurstAblationRow struct {
	// BurstFactor is burst = rate * factor.
	BurstFactor float64
	// MaxOverLimit is the worst per-sample exceedance of the limit.
	MaxOverLimit float64
	// Completion is the workload completion time.
	Completion time.Duration
}

// BurstAblation sweeps token-bucket burst sizing for the Fig. 4 getattr
// scenario: larger bursts absorb spikes (faster completion) but overshoot
// the administrator's limit; smaller bursts cap cleanly but queue more.
func BurstAblation(seed int64) []BurstAblationRow {
	tr := fig4Workload(seed, posix.OpGetAttr)
	mean := meanRate(tr)
	limits := fig4Limits(mean)
	var rows []BurstAblationRow
	for _, factor := range []float64{0.01, 0.1, 0.5, 2.0} {
		c := sim.NewCluster(sim.Config{
			Duration: 3 * fig4Minutes * time.Minute,
		})
		c.AddJob(sim.JobSpec{ID: "job1", Trace: tr, Accel: 60})
		for _, st := range c.StagesOf("job1") {
			st.ApplyRule(policy.Rule{ID: "fig4", Rate: limits[0], Burst: limits[0] * factor})
		}
		for i := 1; i < len(limits); i++ {
			at := time.Duration(i*fig4StepMinutes) * time.Minute
			limit := limits[i]
			f := factor
			c.Schedule(at, "", func(c *sim.Cluster) {
				for _, st := range c.StagesOf("job1") {
					st.ApplyRule(policy.Rule{ID: "fig4", Rate: limit, Burst: limit * f})
				}
			})
		}
		rep := c.Run()
		row := BurstAblationRow{BurstFactor: factor, Completion: rep.Completion["job1"]}
		lim := limitSeries(limits, fig4Minutes*60)
		for i, p := range rep.PerJob["job1"].Points {
			if i < lim.Len() && lim.Points[i].Value > 0 {
				if over := p.Value / lim.Points[i].Value; over > row.MaxOverLimit {
					row.MaxOverLimit = over
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// GranularityAblationResult compares one per-class queue against four
// per-op queues splitting the same budget (DESIGN.md E9): per-op splits
// waste capacity whenever the op mix shifts away from the static split.
type GranularityAblationResult struct {
	Limit        float64
	PerClassDone time.Duration
	PerOpDone    time.Duration
	PerClassMean float64
	PerOpMean    float64
}

// GranularityAblation runs the comparison on the metadata-class workload.
func GranularityAblation(seed int64) GranularityAblationResult {
	tr := fig4Workload(seed, Fig4Ops...)
	limit := meanRate(tr) * 0.8 // binding limit

	run := func(perOp bool) (time.Duration, float64) {
		c := sim.NewCluster(sim.Config{
			Duration: 6 * fig4Minutes * time.Minute,
		})
		c.AddJob(sim.JobSpec{ID: "job1", Trace: tr, Accel: 60})
		for _, st := range c.StagesOf("job1") {
			if perOp {
				for _, op := range Fig4Ops {
					st.ApplyRule(policy.Rule{
						ID:    "per-" + op.String(),
						Match: policy.Matcher{Ops: []posix.Op{op}},
						Rate:  limit / float64(len(Fig4Ops)),
					})
				}
			} else {
				st.ApplyRule(policy.Rule{ID: "class", Rate: limit})
			}
		}
		rep := c.Run()
		return rep.Completion["job1"], rep.PerJob["job1"].Mean()
	}
	res := GranularityAblationResult{Limit: limit}
	res.PerClassDone, res.PerClassMean = run(false)
	res.PerOpDone, res.PerOpMean = run(true)
	return res
}

// RenderAblations formats both ablations.
func RenderAblations(burst []BurstAblationRow, gran GranularityAblationResult) string {
	var b strings.Builder
	b.WriteString("Ablation — token-bucket burst sizing (getattr workload)\n")
	fmt.Fprintf(&b, "  %-12s %14s %12s\n", "burst=rate*x", "max over limit", "completion")
	for _, r := range burst {
		fmt.Fprintf(&b, "  %-12.2f %13.2fx %12v\n", r.BurstFactor, r.MaxOverLimit, r.Completion)
	}
	b.WriteString("Ablation — enforcement granularity (same total budget)\n")
	fmt.Fprintf(&b, "  per-class queue: done %v, mean %.0f ops/s\n", gran.PerClassDone, gran.PerClassMean)
	fmt.Fprintf(&b, "  4 per-op queues: done %v, mean %.0f ops/s\n", gran.PerOpDone, gran.PerOpMean)
	b.WriteString("  (a single class queue is work-conserving across the op mix;\n")
	b.WriteString("   static per-op splits strand budget when the mix shifts)\n")
	return b.String()
}
