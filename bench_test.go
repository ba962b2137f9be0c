// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each figure
// benchmark executes the corresponding experiment from
// internal/experiments and reports the headline quantities as custom
// benchmark metrics; the full row/series output is printed by
// `go run ./cmd/padll-experiments`.
package padll_test

import (
	"fmt"
	"testing"
	"time"

	"padll"
	"padll/internal/clock"
	"padll/internal/experiments"
	"padll/internal/localfs"
	"padll/internal/posix"
	"padll/internal/tokenbucket"
)

// ---- E1: Fig. 1 — metadata throughput at PFS_A over 30 days ----

func BenchmarkFig1_TraceThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(experiments.DefaultSeed)
		b.ReportMetric(r.Stats.MeanTotal/1000, "mean_KOps/s")
		b.ReportMetric(r.Stats.PeakTotal/1000, "peak_KOps/s")
		b.ReportMetric(float64(r.Stats.SustainedOver400K), "sustained>400K_min")
	}
}

// ---- E2: Fig. 2 — type and frequency of metadata operations ----

func BenchmarkFig2_OperationMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(experiments.DefaultSeed)
		b.ReportMetric(r.Top4Share*100, "top4_share_%")
		b.ReportMetric(r.Rows[0].MeanRate/1000, "getattr_KOps/s")
	}
}

// ---- E3: Fig. 4 — per-operation-type rate limiting ----

func benchFig4PerOp(b *testing.B, op posix.Op) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4PerOp(experiments.DefaultSeed, op)
		b.ReportMetric(r.MaxOverLimit, "max_over_limit_x")
		b.ReportMetric(float64(r.CatchUpTicks), "catchup_samples")
		b.ReportMetric(r.Padll.Mean(), "padll_mean_ops/s")
	}
}

func BenchmarkFig4_PerOpType_Open(b *testing.B)    { benchFig4PerOp(b, posix.OpOpen) }
func BenchmarkFig4_PerOpType_Close(b *testing.B)   { benchFig4PerOp(b, posix.OpClose) }
func BenchmarkFig4_PerOpType_Getattr(b *testing.B) { benchFig4PerOp(b, posix.OpGetAttr) }
func BenchmarkFig4_PerOpType_Rename(b *testing.B)  { benchFig4PerOp(b, posix.OpRename) }

// ---- E4: Fig. 4 — per-operation-class (metadata) rate limiting ----

func BenchmarkFig4_PerClass_Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4PerClass(experiments.DefaultSeed)
		b.ReportMetric(r.MaxOverLimit, "max_over_limit_x")
		b.ReportMetric(r.Padll.Mean(), "padll_mean_ops/s")
	}
}

// ---- E5: Fig. 4 — data-operation rate limiting (IOR over the PFS) ----

func benchFig4Data(b *testing.B, write bool) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig4DataConfig(write)
		cfg.StepDuration = 500 * time.Millisecond
		cfg.Steps = 4
		r, err := experiments.Fig4Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BaselineRate, "baseline_ops/s")
		// Accuracy of the binding step (limit 0.5x baseline).
		if len(r.StepMeans) > 0 && r.Limits[0] > 0 {
			b.ReportMetric(r.StepMeans[0]/r.Limits[0], "step1_measured/limit")
		}
	}
}

func BenchmarkFig4_Data_Write(b *testing.B) { benchFig4Data(b, true) }
func BenchmarkFig4_Data_Read(b *testing.B)  { benchFig4Data(b, false) }

// ---- E6: §IV-A overhead table ----

func BenchmarkOverhead_Passthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OverheadTable(40_000)
		if err != nil {
			b.Fatal(err)
		}
		var worst, worstNs float64
		for _, r := range rows {
			if r.OverheadPct > worst {
				worst = r.OverheadPct
			}
			if r.AddedNsPerOp > worstNs {
				worstNs = r.AddedNsPerOp
			}
		}
		b.ReportMetric(worst, "worst_overhead_%")
		b.ReportMetric(worstNs, "worst_added_ns/op")
	}
}

// ---- E7: Fig. 5 — per-job QoS under four setups ----

func benchFig5(b *testing.B, setup experiments.Fig5Setup) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(experiments.DefaultSeed, setup)
		b.ReportMetric(r.PeakAggregate/1000, "agg_peak_KOps/s")
		b.ReportMetric(r.MeanAggregate/1000, "agg_mean_KOps/s")
		if d, ok := r.Completion["job1"]; ok {
			b.ReportMetric(d.Minutes(), "job1_done_min")
		}
	}
}

func BenchmarkFig5_Baseline(b *testing.B) { benchFig5(b, experiments.Fig5Baseline) }
func BenchmarkFig5_Static(b *testing.B)   { benchFig5(b, experiments.Fig5Static) }
func BenchmarkFig5_Priority(b *testing.B) { benchFig5(b, experiments.Fig5Priority) }
func BenchmarkFig5_ProportionalSharing(b *testing.B) {
	benchFig5(b, experiments.Fig5Proportional)
}

// ---- E8: §VI extension — DRF ----

func BenchmarkDRF_Extension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DRFExtension()
		b.ReportMetric(r.DominantShares[0]*100, "dl_dom_share_%")
		b.ReportMetric(r.DominantShares[1]*100, "ckpt_dom_share_%")
	}
}

// ---- E9: ablations ----

func BenchmarkAblation_BurstSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BurstAblation(experiments.DefaultSeed)
		b.ReportMetric(rows[0].MaxOverLimit, "tight_burst_over_x")
		b.ReportMetric(rows[len(rows)-1].MaxOverLimit, "loose_burst_over_x")
	}
}

func BenchmarkAblation_Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.GranularityAblation(experiments.DefaultSeed)
		b.ReportMetric(r.PerClassDone.Minutes(), "per_class_done_min")
		b.ReportMetric(r.PerOpDone.Minutes(), "per_op_done_min")
	}
}

// ---- E10: §IV-C extension — MDS protection under saturation ----

func BenchmarkMDSProtection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.MDSProtection(experiments.DefaultSeed)
		b.ReportMetric(float64(r.Baseline.Completions), "baseline_jobs_done")
		b.ReportMetric(float64(r.Padll.Completions), "padll_jobs_done")
	}
}

// ---- mechanism micro-benchmarks ----

func BenchmarkTokenBucketTryTake(b *testing.B) {
	bkt := tokenbucket.New(clock.NewReal(), 1e12, 1e12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bkt.TryTake(1)
	}
}

func BenchmarkTokenBucketWaitUncontended(b *testing.B) {
	bkt := tokenbucket.New(clock.NewReal(), 1e12, 1e12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bkt.Wait(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterposedGetattr(b *testing.B) {
	backend := localfs.New(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "bench", PID: 1},
		padll.MountPFS("/pfs", backend))
	if err != nil {
		b.Fatal(err)
	}
	c := dp.Client()
	fd, err := c.Creat("/pfs/f", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	c.Close(fd)
	rule, _ := padll.ParseRule("limit id:meta class:metadata rate:unlimited")
	dp.ApplyRule(rule)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetAttr("/pfs/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRawGetattr(b *testing.B) {
	backend := localfs.New(clock.NewReal())
	c := posix.NewClient(backend)
	fd, err := c.Creat("/f", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	c.Close(fd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetAttr("/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalFSCreateUnlink(b *testing.B) {
	backend := localfs.New(clock.NewReal())
	c := posix.NewClient(backend)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("/f%d", i&1023)
		fd, err := c.Creat(p, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		c.Close(fd)
		c.Unlink(p)
	}
}

// ---- §I extension: adaptive cluster limit (AIMD on MDS health) ----

func BenchmarkAdaptiveLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AdaptiveLimit(experiments.DefaultSeed)
		b.ReportMetric(r.Fixed.SaturatedFracAfter*100, "fixed_saturated_%")
		b.ReportMetric(r.Adaptive.SaturatedFracAfter*100, "aimd_saturated_%")
	}
}

// ---- E7.1: chaos replay — controller crash and recovery ----

func BenchmarkE7_ChaosReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ChaosReplay(experiments.DefaultSeed)
		b.ReportMetric(r.OutageMaxDeviation*100, "outage_dev_%")
		b.ReportMetric(r.Aggregate.Mean(), "mean_admitted_ops/s")
	}
}
