package experiments

import (
	"fmt"
	"strings"
	"time"

	"padll/internal/control"
	"padll/internal/metrics"
	"padll/internal/pfs"
	"padll/internal/sim"
)

// E12 — adaptive cluster limit (§I: "dynamically adjusting the metadata
// rate of all jobs according to workload and system variations"). The
// administrator does not know the MDS's sustainable rate — and it changes
// when the server degrades (e.g. a failover to a weaker standby
// mid-run). A fixed 300 KOps/s cap either over-admits (saturating the
// degraded MDS) or permanently under-uses a healthy one; the AIMD
// adapter probes MDS health each control round and tracks the
// sustainable point through the change.

// AdaptiveResult reports the comparison.
type AdaptiveResult struct {
	// InitialCapacity and DegradedCapacity are the MDS's service rates
	// before and after the mid-run degradation.
	InitialCapacity  float64
	DegradedCapacity float64
	// DegradeAt is when the degradation happens.
	DegradeAt time.Duration
	// Fixed and Adaptive are the two setups' outcomes.
	Fixed    AdaptiveOutcome
	Adaptive AdaptiveOutcome
	// LimitSeries traces the adaptive limit over time.
	LimitSeries *metrics.Series
}

// AdaptiveOutcome is one setup's result.
type AdaptiveOutcome struct {
	// SaturatedFracAfter is the fraction of post-degradation ticks the
	// MDS spent saturated.
	SaturatedFracAfter float64
	// MeanAdmittedAfter is the admitted rate after degradation.
	MeanAdmittedAfter float64
	// Completions counts finished jobs.
	Completions int
}

// AdaptiveLimit runs both setups.
func AdaptiveLimit(seed int64) AdaptiveResult {
	const (
		initialCap  = 300_000
		degradedCap = 120_000
		fixedLimit  = 280_000
	)
	degradeAt := 10 * time.Minute

	run := func(adaptive bool) (AdaptiveOutcome, *metrics.Series) {
		c := sim.NewCluster(sim.Config{
			Duration: fig5Horizon,
		})
		backend := pfs.New(c.Clock(), pfs.Config{
			MDSCapacity: initialCap,
			MDSBurst:    initialCap / 10,
		})
		c.AttachPFS(backend)

		opts := []control.Option{
			control.WithAlgorithm(control.ProportionalShare{}),
			control.WithClusterLimit(fixedLimit),
		}
		if adaptive {
			opts = append(opts, control.WithLimitAdapter(&control.AIMDLimit{
				Probe:    func() bool { return backend.Stats().Saturated },
				Min:      20_000,
				Max:      400_000,
				Increase: 4_000,
				Decrease: 0.85,
			}))
		}
		ctl := control.New(nil, opts...)
		c.AttachController(ctl)

		tr := fig5Workload(seed)
		for i := 0; i < fig5Jobs; i++ {
			c.AddJob(sim.JobSpec{
				ID:          fmt.Sprintf("job%d", i+1),
				Arrival:     time.Duration(i) * fig5ArrivalGap,
				Trace:       tr,
				Accel:       60,
				Reservation: fig5Reservations[i] * degradedCap / fig5ClusterLimit,
			})
		}
		// Schedule the mid-run degradation.
		c.Schedule(degradeAt, func(*sim.Cluster) {
			backend.SetMDSCapacity(degradedCap)
		})

		// Trace the limit, and probe MDS saturation every second once the
		// degradation (plus a settling window for the adapter) is past.
		limits := metrics.NewSeries("cluster-limit")
		var satAfter, ticksAfter float64
		settleBy := degradeAt + 2*time.Minute
		for t := time.Second; t <= fig5Horizon; t += time.Second {
			at := t
			c.Schedule(at, func(cl *sim.Cluster) {
				if at%(5*time.Second) == 0 {
					limits.Append(cl.Clock().Now(), ctl.ClusterLimit())
				}
				if at >= settleBy {
					ticksAfter++
					if backend.Stats().Saturated {
						satAfter++
					}
				}
			})
		}
		rep := c.Run()
		// Mean admitted rate after degradation, from the aggregate series.
		var admittedAfter, nAfter float64
		t0 := time.Time{}
		if rep.Aggregate.Len() > 0 {
			t0 = rep.Aggregate.Points[0].T
		}
		for _, p := range rep.Aggregate.Points {
			if p.T.Sub(t0) >= degradeAt {
				nAfter++
				admittedAfter += p.Value
			}
		}
		out := AdaptiveOutcome{Completions: len(rep.Completion)}
		if ticksAfter > 0 {
			out.SaturatedFracAfter = satAfter / ticksAfter
		}
		if nAfter > 0 {
			out.MeanAdmittedAfter = admittedAfter / nAfter
		}
		return out, limits
	}

	res := AdaptiveResult{
		InitialCapacity:  initialCap,
		DegradedCapacity: degradedCap,
		DegradeAt:        degradeAt,
	}
	res.Fixed, _ = run(false)
	res.Adaptive, res.LimitSeries = run(true)
	return res
}

// Render formats the comparison.
func (r AdaptiveResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§I extension — adaptive cluster limit (MDS degrades %.0fK -> %.0fK at %v)\n",
		r.InitialCapacity/1000, r.DegradedCapacity/1000, r.DegradeAt)
	row := func(name string, o AdaptiveOutcome) {
		fmt.Fprintf(&b, "  %-16s post-degradation: MDS pinned %.0f%% of ticks, mean admitted %.0f KOps/s, jobs done %d/4\n",
			name, o.SaturatedFracAfter*100, o.MeanAdmittedAfter/1000, o.Completions)
	}
	row("fixed 280K cap", r.Fixed)
	row("AIMD adapter", r.Adaptive)
	if r.LimitSeries != nil && r.LimitSeries.Len() > 0 {
		fmt.Fprintf(&b, "  adaptive limit trajectory: start %.0fK, min %.0fK, end %.0fK\n",
			r.LimitSeries.Points[0].Value/1000, r.LimitSeries.Min()/1000,
			r.LimitSeries.Points[r.LimitSeries.Len()-1].Value/1000)
	}
	return b.String()
}
