package experiments

import (
	"fmt"
	"strings"
	"time"

	"padll/internal/metrics"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/sim"
	"padll/internal/stage"
	"padll/internal/trace"
)

// Fig. 4 methodology (§IV-A): the trace replayer submits the metadata
// operations of a single MDT of PFS_A, scaled to half rate, with each
// replayer second covering a minute of the log. PADLL throttles with a
// static limit the administrator changes every 6 minutes.
const (
	fig4Minutes     = 30 // experiment length (covers 30 trace-hours)
	fig4StepMinutes = 6  // administrator changes the limit every 6 min
)

// fig4LimitFactors scales each 6-minute step's limit relative to the
// workload's mean rate: steps above 1 let padll follow the baseline
// curve; steps well below 1 throttle aggressively and build the backlog
// whose later drain produces the above-baseline catch-up the paper
// describes.
var fig4LimitFactors = []float64{1.3, 0.45, 2.0, 0.3, 0.9}

// Fig4Result holds one panel of Fig. 4.
type Fig4Result struct {
	// Name is the panel label (an op type, or "metadata").
	Name string
	// Baseline, Passthrough and Padll are admitted ops/s per second.
	Baseline    *metrics.Series
	Passthrough *metrics.Series
	Padll       *metrics.Series
	// Limits is the stepped limit the administrator configured.
	Limits *metrics.Series
	// MeanRate is the workload's mean demand (ops/s), the basis of the
	// limit schedule.
	MeanRate float64
	// MaxOverLimit is the largest factor by which a padll sample
	// exceeded its limit (burst slack; ~1.0 means clean capping).
	MaxOverLimit float64
	// CatchUpTicks counts padll samples above the concurrent baseline —
	// the backlog-drain overshoot.
	CatchUpTicks int
	// BaselineDone/PadllDone are the workload completion times.
	BaselineDone time.Duration
	PadllDone    time.Duration
}

// pickWindow returns the start sample of the length-`samples` window
// whose mean aggregate rate is closest to target — a representative slice
// of the 30-day log, so scenario sizing (limits, shares) relates to the
// workload the way the paper's setup does.
func pickWindow(tr *trace.Trace, samples int, target float64) int {
	n := tr.Len()
	if samples >= n {
		return 0
	}
	totals := make([]float64, n+1)
	for i := 0; i < n; i++ {
		var s float64
		for _, op := range tr.Ops {
			s += tr.Rates[op][i]
		}
		totals[i+1] = totals[i] + s
	}
	best, bestDiff := 0, -1.0
	for start := 0; start+samples <= n; start += 60 {
		mean := (totals[start+samples] - totals[start]) / float64(samples)
		diff := mean - target
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			best, bestDiff = start, diff
		}
	}
	return best
}

// fig4Workload builds the single-MDT half-rate workload for the given
// ops, sliced to the experiment length at a mean-representative window.
func fig4Workload(seed int64, ops ...posix.Op) *trace.Trace {
	full := trace.SingleMDT(trace.PFSALike(seed)).Scale(0.5)
	// 30 experiment-minutes at 60x acceleration covers 30 trace-hours.
	samples := fig4Minutes * 60 // trace minutes needed: 30h = 1800
	target := meanRate(full)
	start := pickWindow(full, samples, target)
	return full.Slice(start, start+samples).Filter(ops...)
}

// meanRate returns the mean aggregate rate of a trace.
func meanRate(tr *trace.Trace) float64 {
	st := trace.Analyze(tr)
	return st.MeanTotal
}

// fig4Run executes one setup over the workload.
func fig4Run(tr *trace.Trace, mode stage.Mode, limits []float64) (*metrics.Series, time.Duration, *sim.Report) {
	c := sim.NewCluster(sim.Config{
		Duration: 3 * fig4Minutes * time.Minute, // headroom for backlog drain
		StageMode: func() stage.Mode {
			return mode
		}(),
	})
	c.AddJob(sim.JobSpec{ID: "job1", User: "u1", Trace: tr, Accel: 60})
	if limits != nil {
		// Install the managed rule and schedule the administrator's
		// 6-minute limit changes.
		for i, f := range limits {
			at := time.Duration(i*fig4StepMinutes) * time.Minute
			limit := f
			if i == 0 {
				for _, st := range c.StagesOf("job1") {
					st.ApplyRule(policy.Rule{ID: "fig4", Rate: limit})
				}
				continue
			}
			c.Schedule(at, "", func(c *sim.Cluster) {
				for _, st := range c.StagesOf("job1") {
					st.SetRate("fig4", limit)
				}
			})
		}
	}
	rep := c.Run()
	done := rep.Completion["job1"]
	return rep.PerJob["job1"], done, rep
}

// fig4Limits builds the stepped limit schedule around the workload mean.
func fig4Limits(mean float64) []float64 {
	out := make([]float64, len(fig4LimitFactors))
	for i, f := range fig4LimitFactors {
		out[i] = mean * f
	}
	return out
}

// limitSeries renders the schedule as a per-second series for plotting.
func limitSeries(limits []float64, totalSeconds int) *metrics.Series {
	s := metrics.NewSeries("limit")
	stepSecs := fig4StepMinutes * 60
	for sec := 0; sec < totalSeconds; sec++ {
		i := sec / stepSecs
		if i >= len(limits) {
			i = len(limits) - 1
		}
		s.Append(simEpoch.Add(time.Duration(sec)*time.Second), limits[i])
	}
	return s
}

// fig4Panel runs all three setups for one workload.
func fig4Panel(name string, tr *trace.Trace) Fig4Result {
	mean := meanRate(tr)
	limits := fig4Limits(mean)

	baseline, baseDone, _ := fig4Run(tr, stage.Enforce, nil)
	passthrough, _, _ := fig4Run(tr, stage.Passthrough, limits)
	padll, padllDone, _ := fig4Run(tr, stage.Enforce, limits)

	res := Fig4Result{
		Name:         name,
		Baseline:     baseline,
		Passthrough:  passthrough,
		Padll:        padll,
		Limits:       limitSeries(limits, fig4Minutes*60),
		MeanRate:     mean,
		BaselineDone: baseDone,
		PadllDone:    padllDone,
	}
	// Shape checks the paper reports: padll never exceeds the limit (up
	// to burst slack), and drains backlog above baseline after
	// aggressive steps.
	for i, p := range res.Padll.Points {
		if i < res.Limits.Len() {
			lim := res.Limits.Points[i].Value
			if lim > 0 && p.Value/lim > res.MaxOverLimit {
				res.MaxOverLimit = p.Value / lim
			}
		}
		if i < res.Baseline.Len() && p.Value > res.Baseline.Points[i].Value*1.05 {
			res.CatchUpTicks++
		}
	}
	return res
}

// Fig4Ops are the operation types with a Fig. 4 panel each: the top four
// of PFS_A's metadata mix (§II-A).
var Fig4Ops = []posix.Op{posix.OpOpen, posix.OpClose, posix.OpGetAttr, posix.OpRename}

// Fig4PerOp reproduces one per-operation-type panel of Fig. 4.
func Fig4PerOp(seed int64, op posix.Op) Fig4Result {
	return fig4Panel(op.String(), fig4Workload(seed, op))
}

// Fig4PerClass reproduces the per-operation-class (metadata) panel: the
// replayer spawns one thread per op type — open, close, getattr, rename —
// all throttled by a single metadata-class queue.
func Fig4PerClass(seed int64) Fig4Result {
	return fig4Panel("metadata", fig4Workload(seed, Fig4Ops...))
}

// Render formats a panel summary.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 [%s] — per-operation rate limiting (single-MDT trace, half rate)\n", r.Name)
	fmt.Fprintf(&b, "  mean demand        %.0f ops/s\n", r.MeanRate)
	fmt.Fprintf(&b, "  limit schedule     %s (every %d min)\n", renderLimits(r.Limits), fig4StepMinutes)
	fmt.Fprintf(&b, "  baseline mean/peak %.0f / %.0f ops/s\n", r.Baseline.Mean(), r.Baseline.Max())
	fmt.Fprintf(&b, "  padll    mean/peak %.0f / %.0f ops/s\n", r.Padll.Mean(), r.Padll.Max())
	fmt.Fprintf(&b, "  max over limit     %.2fx (burst slack; <=1.1 is clean capping)\n", r.MaxOverLimit)
	fmt.Fprintf(&b, "  catch-up samples   %d (padll above baseline while draining backlog)\n", r.CatchUpTicks)
	fmt.Fprintf(&b, "  completion         baseline %v, padll %v\n", r.BaselineDone, r.PadllDone)
	return b.String()
}

func renderLimits(s *metrics.Series) string {
	if s.Len() == 0 {
		return "-"
	}
	var vals []string
	last := -1.0
	for _, p := range s.Points {
		if p.Value != last {
			vals = append(vals, fmt.Sprintf("%.0f", p.Value))
			last = p.Value
		}
	}
	return strings.Join(vals, " -> ")
}
