package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/ior"
	"padll/internal/metrics"
	"padll/internal/pfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// Fig. 4's read/write panels submit IOR data operations to the PFS while
// PADLL steps the limit every minute (§IV-A). This experiment runs the
// real blocking stack — IOR ranks -> interposition shim -> stage queues ->
// simulated Lustre — on a simulated clock under clock.Sim.Drive: ranks
// wait in the stage's token bucket and in the OSTs' bandwidth buckets,
// and the panel comes out the same on every run.
//
// The paper observes more variability on these panels than on the
// metadata ones because requests cross the shared PFS; here it shows up
// as the ranks contending for the OSTs their transfers stripe onto.

const (
	// fig4DataStep is how long each administrator limit lasts: the
	// paper's minute, compressed (the shapes are step-length invariant),
	// and long enough that the stage's burst (a tenth of a second of
	// rate) moves a step's mean by under 5 %.
	fig4DataStep     = 4 * time.Second
	fig4DataWindow   = time.Second
	fig4DataTasks    = 4
	fig4DataTransfer = 4 << 10
)

// fig4DataLimitFactors steps the data limit around the baseline rate.
var fig4DataLimitFactors = []float64{0.5, 1.5, 0.25, 1.0}

// Fig4DataResult holds one data panel.
type Fig4DataResult struct {
	Mode string
	// BaselineRate is the unthrottled transfer rate (ops/s).
	BaselineRate float64
	// Padll is the throttled per-window series and Limit the limit in
	// force in each of its windows.
	Padll, Limit *metrics.Series
	// Limits is the per-step limit schedule (ops/s).
	Limits []float64
	// StepMeans is the measured rate within each step.
	StepMeans []float64
}

// Fig4Data runs the write panel (write) or the read panel. Each step is
// its own IOR run, ended by a canceller asleep on the clock: a limit
// changes only while no rank waits in the bucket it retunes, because a
// retune wakes sleepers off the clock.
func Fig4Data(write bool) (Fig4DataResult, error) {
	res := Fig4DataResult{Mode: "read"}
	throttled := []posix.Op{posix.OpPRead, posix.OpRead}
	if write {
		res.Mode = "write"
		throttled = []posix.Op{posix.OpPWrite, posix.OpWrite}
	}
	clk := clock.NewSim(simEpoch)
	newBackend := func() *pfs.PFS {
		return pfs.New(clk, pfs.Config{
			MDSCapacity:  1e9,
			MDSBurst:     1e9,
			OSTBandwidth: 1 << 20,
			OSTBurst:     64 << 10,
		})
	}
	cfg := func(client *posix.Client, mode ior.Mode, repeat bool) ior.Config {
		return ior.Config{
			Client:       client,
			Dir:          "/data",
			NumTasks:     fig4DataTasks,
			TransferSize: fig4DataTransfer,
			BlockSize:    fig4DataTransfer * 64,
			SegmentCount: 4,
			Mode:         mode,
			Repeat:       repeat,
			Clock:        clk,
			Window:       fig4DataWindow,
		}
	}
	// step streams transfers for one step and returns the rate measured
	// and the step's whole sampling windows. The read panel reads a
	// dataset written beforehand.
	step := func(client *posix.Client) (float64, []metrics.Point, error) {
		ctx, cancel := context.WithCancel(context.Background())
		stop := clock.NewGroup(clk)
		stop.Go(func() {
			clk.Sleep(fig4DataStep)
			cancel()
		})
		mode := ior.ReadOnly
		if write {
			mode = ior.WriteOnly
		}
		r, err := ior.Run(ctx, cfg(client, mode, true))
		stop.Wait()
		if err != nil {
			return 0, nil, err
		}
		ops, s := r.ReadOps, r.ReadOpsSeries
		if write {
			ops, s = r.WriteOps, r.WriteOpsSeries
		}
		pts := s.Points
		if n := len(pts); n > 1 && pts[n-1].T.Sub(pts[n-2].T) < fig4DataWindow {
			pts = pts[:n-1] // the partial window the in-flight transfers closed after the step
		}
		return float64(ops) / r.Elapsed.Seconds(), pts, nil
	}
	prepare := func(client *posix.Client) error {
		if write {
			return nil
		}
		_, err := ior.Run(context.Background(), cfg(client, ior.WriteOnly, false))
		return err
	}

	var err error
	clk.Drive(func() {
		// Baseline: unthrottled against a fresh PFS, to calibrate limits.
		base := posix.NewClient(newBackend())
		if err = prepare(base); err != nil {
			return
		}
		if res.BaselineRate, _, err = step(base); err != nil {
			return
		}
		if res.BaselineRate <= 0 {
			err = fmt.Errorf("experiments: baseline produced no %s ops", res.Mode)
			return
		}
		for _, f := range fig4DataLimitFactors {
			res.Limits = append(res.Limits, res.BaselineRate*f)
		}

		// PADLL run: shim + stage throttling the data ops.
		stg := stage.New(stage.Info{StageID: "ior-stage", JobID: "ior-job"}, clk)
		stg.ApplyRule(policy.Rule{ID: "data", Match: policy.Matcher{Ops: throttled}, Rate: res.Limits[0]})
		client := posix.NewClient(interpose.New(newBackend(), stg, clk))
		if err = prepare(client); err != nil {
			return
		}
		res.Padll, res.Limit = metrics.NewSeries("padll"), metrics.NewSeries("limit")
		for i, limit := range res.Limits {
			stg.SetRate("data", limit)
			var mean float64
			var pts []metrics.Point
			if mean, pts, err = step(client); err != nil {
				return
			}
			res.StepMeans = append(res.StepMeans, mean)
			for _, p := range pts {
				res.Padll.Append(p.T, p.Value)
				res.Limit.Append(p.T, res.Limits[i])
			}
		}
	})
	if err != nil {
		return Fig4DataResult{}, err
	}
	return res, nil
}

// CSV returns the panel's padll and limit columns.
func (r Fig4DataResult) CSV() CSVFile {
	return CSVFile{Name: "fig4_data_" + r.Mode + ".csv", Content: metrics.MergeCSV(r.Padll, r.Limit)}
}

// Render formats the data panel.
func (r Fig4DataResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 [%s] — data-operation rate limiting (IOR over simulated Lustre)\n", r.Mode)
	fmt.Fprintf(&b, "  baseline rate  %.0f ops/s\n", r.BaselineRate)
	for i := range r.Limits {
		fmt.Fprintf(&b, "  step %d: limit %8.0f ops/s, measured %8.0f ops/s\n", i+1, r.Limits[i], r.StepMeans[i])
	}
	return b.String()
}
