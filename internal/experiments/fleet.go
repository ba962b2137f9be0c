package experiments

import (
	"fmt"
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
// stage and returns incremental per-queue deltas; this experiment counts
// what a steady-state round costs at increasing fleet sizes. Every stage
// runs the frame transport in process (rpcio.LocalStage) on a simulated
// clock, so the counts are the same on every run; what a round takes on
// the wall clock over TCP is the repository benchmark's fleet_rounds
// workload.

// FleetRow is one counted point of the fleet sweep.
type FleetRow struct {
	// Stages is the registered fleet size.
	Stages int
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
	fleetIters         = 3
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

// fleetPoint registers n stages and counts a steady-state control round.
func fleetPoint(n int) (FleetRow, error) {
	clk := clock.NewSim(simEpoch)
	ctl := control.New(clk,
		control.WithClusterLimit(1_000_000),
		control.WithAlgorithm(control.FixedRates{}))
	for j := 0; j < fleetJobs; j++ {
		ctl.SetReservation(fmt.Sprintf("job%02d", j), float64(1000*(j+1)))
	}
	for i := 0; i < n; i++ {
		stg := fleetStage(i, clk)
		if err := ctl.Register(stg.Info(), rpcio.LocalStage(rpcio.NewStageService(stg), clk, nil)); err != nil {
			return FleetRow{}, err
		}
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: stg.Info().JobID}, float64(100+i), time.Second)
	}

	row := FleetRow{Stages: n}
	// The first round pays the one-time full snapshots and initial
	// pushes, and the second collects the deltas those pushes caused;
	// the third is the steady state a long-lived fleet is in.
	ctl.RunOnce()
	if rs, ok := ctl.LastRound(); ok {
		row.FirstRoundBytes = rs.BytesRead + rs.BytesWritten
	}
	ctl.RunOnce()
	ctl.RunOnce()
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
	clk := clock.NewSim(simEpoch)
	svc := rpcio.NewStageService(fleetStage(0, clk))
	batch := []rpcio.StageOp{{Kind: rpcio.OpSetRate, ID: "admin-00", Rate: 2000}}
	for i := 0; i < fleetMgmtRules; i++ {
		batch = append(batch, rpcio.StageOp{Kind: rpcio.OpApplyRule,
			Rule: policy.Rule{ID: fmt.Sprintf("mgmt-%d", i), Rate: float64(1000 * (i + 1))}})
	}
	var st stage.Stats
	if _, _, err = rpcio.LocalStage(svc, clk, nil).Exec(batch, &st); err != nil {
		return 0, 0, err
	}
	return len(batch) + 1, int(svc.Served().Calls), nil // +1: the collect
}

// FleetScale runs the E13 sweep over fleets of 16 to 1024 stages.
func FleetScale() (FleetResult, error) {
	var res FleetResult
	for _, n := range []int{16, 64, 256, 1024} {
		row, err := fleetPoint(n)
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

// CSV returns the sweep, one row per fleet size.
func (r FleetResult) CSV() CSVFile {
	var b strings.Builder
	b.WriteString("stages,rpcs_per_round,pushes_skipped,wire_bytes_per_round,first_round_bytes\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", row.Stages, row.RPCs, row.PushesSkipped, row.WireBytes, row.FirstRoundBytes)
	}
	return CSVFile{Name: "e13_fleet.csv", Content: b.String()}
}

// Render formats the E13 tables.
func (r FleetResult) Render() string {
	var b strings.Builder
	b.WriteString("E13 — fleet-scale wire protocol: one batched delta exchange per stage per round\n")
	fmt.Fprintf(&b, "  %7s %11s %9s %13s %14s\n", "stages", "rpcs/round", "skipped", "wire B/round", "first round B")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %7d %11d %9d %13d %14d\n",
			row.Stages, row.RPCs, row.PushesSkipped, row.WireBytes, row.FirstRoundBytes)
	}
	fmt.Fprintf(&b, "  management round (collect + set-rate + %d rule installs) on one stage:\n", fleetMgmtRules)
	fmt.Fprintf(&b, "    %d operations in %d RPC\n", r.MgmtOps, r.MgmtRPCs)
	b.WriteString("  (steady-state rounds skip unchanged-rate pushes entirely and collect\n")
	b.WriteString("   incremental deltas, so wire bytes stay flat as rules grow;\n")
	b.WriteString("   round latency over TCP: go run ./bench --workload fleet_rounds)\n")
	return b.String()
}
