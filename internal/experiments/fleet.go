package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// E13 — fleet-scale wire protocol. The batched delta protocol folds a
// round's collect and rate pushes into one Stage.Batch round trip per
// stage and returns incremental per-queue deltas; this experiment
// measures what a steady-state round costs at increasing fleet sizes.

// FleetRow is one measured point of the fleet sweep.
type FleetRow struct {
	// Transport is "tcp" or "loopback" (the frame codec in process).
	Transport string
	// Stages is the registered fleet size.
	Stages int
	// RoundLatency is the mean wall time of one steady-state RunOnce.
	RoundLatency time.Duration
	// RPCs, PushesSkipped and WireBytes are per-round totals from the
	// controller's accounting of the last steady-state round;
	// FirstRoundBytes is what the warm-up round (full snapshots plus the
	// initial rate pushes) moved.
	RPCs            int
	PushesSkipped   int
	WireBytes       uint64
	FirstRoundBytes uint64
}

// FleetResult is the full E13 output.
type FleetResult struct {
	Rows []FleetRow
	// Management round on one stage — collect stats, retune a rate, and
	// install fleetMgmtRules policy rules: the operations it carried and
	// the round trips the stage service counted for them.
	MgmtOps  int
	MgmtRPCs int
}

const (
	fleetJobs          = 8
	fleetRulesPerStage = 4
	fleetMgmtRules     = 4
	fleetIters         = 5
)

// fleetStage mirrors the control-package fleet benchmarks: admin rules
// give full snapshots realistic serialization weight.
func fleetStage(i int, clk clock.Clock) *stage.Stage {
	stg := stage.New(stage.Info{
		StageID:  fmt.Sprintf("s%04d", i),
		JobID:    fmt.Sprintf("job%02d", i%fleetJobs),
		Hostname: fmt.Sprintf("node%03d", i/8),
		PID:      1000 + i,
	}, clk)
	for r := 0; r < fleetRulesPerStage; r++ {
		stg.ApplyRule(policy.Rule{
			ID:   fmt.Sprintf("admin-%02d", r),
			Rate: float64(1000 * (r + 1)),
		})
	}
	return stg
}

// fleetPoint registers n stages and times steady-state control rounds.
func fleetPoint(n int, loopback bool) (FleetRow, error) {
	clk := clock.NewReal()
	ctl := control.New(clk,
		control.WithClusterLimit(1_000_000),
		control.WithAlgorithm(control.FixedRates{}))
	for j := 0; j < fleetJobs; j++ {
		ctl.SetReservation(fmt.Sprintf("job%02d", j), float64(1000*(j+1)))
	}

	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()

	for i := 0; i < n; i++ {
		stg := fleetStage(i, clk)
		var h *rpcio.StageHandle
		if loopback {
			h = rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg))
		} else {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return FleetRow{}, err
			}
			stop := rpcio.ServeStage(l, stg)
			h, err = rpcio.DialStage(l.Addr().String())
			if err != nil {
				stop()
				return FleetRow{}, err
			}
			cleanups = append(cleanups, func() { _ = h.Close(); stop() })
		}
		if err := ctl.Register(stg.Info(), h); err != nil {
			return FleetRow{}, err
		}
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: stg.Info().JobID}, float64(100+i), time.Second)
	}

	row := FleetRow{
		Transport: map[bool]string{true: "loopback", false: "tcp"}[loopback],
		Stages:    n,
	}
	// First round pays the one-time full snapshots and initial pushes;
	// the measured rounds are the steady state a long-lived fleet is in.
	ctl.RunOnce()
	if rs, ok := ctl.LastRound(); ok {
		row.FirstRoundBytes = rs.BytesRead + rs.BytesWritten
	}
	start := clk.Now()
	for i := 0; i < fleetIters; i++ {
		ctl.RunOnce()
	}
	row.RoundLatency = clk.Now().Sub(start) / fleetIters
	if rs, ok := ctl.LastRound(); ok {
		row.RPCs = rs.RPCs()
		row.PushesSkipped = rs.PushesSkipped
		row.WireBytes = rs.BytesRead + rs.BytesWritten
	}
	return row, nil
}

// fleetManagementRound runs one management round against one stage —
// collect stats, retune a rate, install fleetMgmtRules rules — and
// reports the operations it carried and the round trips the stage
// service itself counted for them.
func fleetManagementRound() (ops, calls int, err error) {
	svc := rpcio.NewStageService(fleetStage(0, clock.NewReal()))
	batch := []rpcio.StageOp{{Kind: rpcio.OpSetRate, ID: "admin-00", Rate: 2000}}
	for i := 0; i < fleetMgmtRules; i++ {
		batch = append(batch, rpcio.StageOp{Kind: rpcio.OpApplyRule,
			Rule: policy.Rule{ID: fmt.Sprintf("mgmt-%d", i), Rate: float64(1000 * (i + 1))}})
	}
	var st stage.Stats
	if _, _, err = rpcio.EncodedLoopbackStage(svc).Exec(batch, &st, false); err != nil {
		return 0, 0, err
	}
	return len(batch) + 1, int(svc.Served().Calls), nil // +1: the collect
}

// FleetScale runs the E13 sweep: TCP fleets of 16/64/256 stages, plus a
// 1024-stage point over the in-process encoded loopback (a single
// machine cannot hold 1024 live TCP stage services comfortably, and the
// loopback runs the identical codec).
func FleetScale() (FleetResult, error) {
	var res FleetResult
	for _, n := range []int{16, 64, 256, 1024} {
		row, err := fleetPoint(n, n == 1024)
		if err != nil {
			return FleetResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	var err error
	res.MgmtOps, res.MgmtRPCs, err = fleetManagementRound()
	if err != nil {
		return FleetResult{}, err
	}
	return res, nil
}

// Render formats the E13 tables.
func (r FleetResult) Render() string {
	var b strings.Builder
	b.WriteString("E13 — fleet-scale wire protocol: one batched delta exchange per stage per round\n")
	fmt.Fprintf(&b, "  %-9s %7s %14s %11s %9s %13s %14s\n",
		"transport", "stages", "round latency", "rpcs/round", "skipped", "wire B/round", "first round B")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %7d %14v %11d %9d %13d %14d\n",
			row.Transport, row.Stages, row.RoundLatency.Round(time.Microsecond),
			row.RPCs, row.PushesSkipped, row.WireBytes, row.FirstRoundBytes)
	}
	fmt.Fprintf(&b, "  management round (collect + set-rate + %d rule installs) on one stage:\n", fleetMgmtRules)
	fmt.Fprintf(&b, "    %d operations in %d RPC\n", r.MgmtOps, r.MgmtRPCs)
	b.WriteString("  (steady-state rounds skip unchanged-rate pushes entirely and collect\n")
	b.WriteString("   incremental deltas, so wire bytes stay flat as rules grow)\n")
	return b.String()
}
