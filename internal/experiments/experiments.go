// Package experiments regenerates every table and figure of the paper's
// evaluation (§II-A and §IV), plus the extension studies its discussion
// and future-work sections call for. Each experiment returns a structured
// result with the same rows/series the paper plots, and a text renderer
// for terminal output; cmd/padll-experiments is a thin wrapper over this
// package. Every experiment runs on a simulated clock: its numbers are
// counted, the same on every run, and every plot table (CSVs) is a
// golden under testdata/golden. Timed numbers — interposition overhead
// (§IV-A) and control-round latency — are the repository benchmark's
// (bench/).
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	E1 Fig. 1  — metadata throughput at PFS_A over 30 days
//	E2 Fig. 2  — type and frequency of metadata operations
//	E3 Fig. 4  — per-operation-type rate limiting (open/close/getattr)
//	E4 Fig. 4  — per-operation-class rate limiting (metadata)
//	E5 Fig. 4  — data-operation rate limiting (read/write via IOR)
//	E6 §IV-A   — interposition overhead: timed, in bench/ only
//	E7 Fig. 5  — per-job QoS: Baseline/Static/Priority/Proportional
//	E8 §VI     — DRF control algorithm (future-work extension)
//	E9 ablations — burst sizing; queue granularity; shape vs drop
//	E10 §IV-C  — MDS protection under saturation (discussion scenario)
//	E11        — folded into E13 (its in-process rows were E13's)
//	E12 §I     — adaptive cluster limit (AIMD on MDS health)
//	E13 §VI    — fleet-scale control rounds (counted over in-memory conns)
package experiments

import (
	"fmt"
	"strings"
	"time"

	"padll/internal/metrics"
	"padll/internal/posix"
	"padll/internal/trace"
)

// DefaultSeed is used by the CLI and the goldens so results are
// reproducible run to run.
const DefaultSeed = 2022

// simEpoch is where every simulated clock of the experiments starts.
var simEpoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// ---- E1: Fig. 1 ----

// Fig1Result reproduces Fig. 1: the aggregate metadata throughput of
// PFS_A over a 30-day observation window.
type Fig1Result struct {
	// Stats is the §II-A summary of the trace.
	Stats trace.Stats
	// Hourly is the aggregate rate downsampled to hourly means — the
	// series the figure plots.
	Hourly *metrics.Series
	// P50, P90 and P99 summarize the distribution of per-minute rates.
	P50, P90, P99 float64
}

// Fig1 runs the trace study.
func Fig1(seed int64) Fig1Result {
	tr := trace.PFSALike(seed)
	st := trace.Analyze(tr)

	// Per-minute aggregate distribution for the CDF summary.
	perMin := metrics.NewSeries("per-minute")
	for i := 0; i < tr.Len(); i++ {
		var total float64
		for _, op := range tr.Ops {
			total += tr.Rates[op][i]
		}
		perMin.Append(simEpoch.Add(time.Duration(i)*time.Minute), total)
	}

	hourly := metrics.NewSeries("total-kops")
	samplesPerHour := int(time.Hour / tr.SampleInterval)
	for h := 0; h*samplesPerHour < tr.Len(); h++ {
		var sum float64
		n := 0
		for i := h * samplesPerHour; i < (h+1)*samplesPerHour && i < tr.Len(); i++ {
			var total float64
			for _, op := range tr.Ops {
				total += tr.Rates[op][i]
			}
			sum += total
			n++
		}
		hourly.Append(simEpoch.Add(time.Duration(h)*time.Hour), sum/float64(n)/1000)
	}
	return Fig1Result{
		Stats:  st,
		Hourly: hourly,
		P50:    perMin.Percentile(50),
		P90:    perMin.Percentile(90),
		P99:    perMin.Percentile(99),
	}
}

// Render formats the result as the paper reports it.
func (r Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — Throughput of metadata operations in PFS_A (30 days, 1-min samples)\n")
	fmt.Fprintf(&b, "  samples                 %d\n", r.Stats.Samples)
	fmt.Fprintf(&b, "  mean rate               %.1f KOps/s   (paper: ~200 KOps/s)\n", r.Stats.MeanTotal/1000)
	fmt.Fprintf(&b, "  peak rate               %.1f KOps/s   (paper: bursts peak at 1 MOps/s)\n", r.Stats.PeakTotal/1000)
	fmt.Fprintf(&b, "  min rate                %.1f KOps/s   (paper: lulls of <=50 KOps/s)\n", r.Stats.MinTotal/1000)
	fmt.Fprintf(&b, "  longest run >400 KOps/s %s        (paper: hours to days)\n", time.Duration(r.Stats.SustainedOver400K)*time.Minute)
	fmt.Fprintf(&b, "  fraction >400 KOps/s    %.1f%%\n", r.Stats.FracOver400K*100)
	fmt.Fprintf(&b, "  rate CDF                p50 %.0fK, p90 %.0fK, p99 %.0fK\n", r.P50/1000, r.P90/1000, r.P99/1000)
	return b.String()
}

// ---- E2: Fig. 2 ----

// Fig2Row is one bar of Fig. 2.
type Fig2Row struct {
	Op       posix.Op
	Total    float64 // operations over the 30 days
	MeanRate float64 // ops/s
	Share    float64 // fraction of total load
}

// Fig2Result reproduces Fig. 2: type and frequency of metadata
// operations at PFS_A.
type Fig2Result struct {
	Rows      []Fig2Row
	Top4Share float64
	TotalOps  float64
}

// Fig2 runs the operation-mix study.
func Fig2(seed int64) Fig2Result {
	tr := trace.PFSALike(seed)
	st := trace.Analyze(tr)
	res := Fig2Result{Top4Share: st.Top4Share, TotalOps: st.TotalOps}
	for _, op := range tr.Ops {
		res.Rows = append(res.Rows, Fig2Row{
			Op:       op,
			Total:    st.PerOpTotal[op],
			MeanRate: st.PerOpMean[op],
			Share:    st.PerOpTotal[op] / st.TotalOps,
		})
	}
	// Sort descending by total, as the figure orders its bars.
	for i := 0; i < len(res.Rows); i++ {
		for j := i + 1; j < len(res.Rows); j++ {
			if res.Rows[j].Total > res.Rows[i].Total {
				res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
			}
		}
	}
	return res
}

// Render formats the mix table.
func (r Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — Type and frequency of metadata operations in PFS_A\n")
	fmt.Fprintf(&b, "  %-10s %14s %12s %8s\n", "op", "total", "mean rate", "share")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %13.1fG %9.1fK/s %7.2f%%\n",
			row.Op, row.Total/1e9, row.MeanRate/1000, row.Share*100)
	}
	fmt.Fprintf(&b, "  top-4 share: %.1f%% (paper: 98%%)\n", r.Top4Share*100)
	return b.String()
}
