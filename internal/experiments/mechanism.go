package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"padll/internal/clock"
	"padll/internal/interpose"
	"padll/internal/mdtest"
	"padll/internal/pfs"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// Mechanism ablation: the paper's data plane shapes traffic (requests
// queue until tokens arrive); the classic alternative is policing
// (requests past the rate fail fast). Both mechanisms are implemented on
// the same queues; this experiment runs the same mdtest workload under
// each, through shim, stage and the simulated PFS's MDS on a simulated
// clock, and reports the trade-off applications actually see: shaping
// pays with completion time, policing pays with rejected operations.

// MechanismRow is one enforcement mechanism's outcome.
type MechanismRow struct {
	Mechanism string
	// Elapsed is the benchmark makespan.
	Elapsed time.Duration
	// Ops and Errors are the benchmark's totals; under policing, errors
	// are the rejected (dropped) requests.
	Ops    int64
	Errors int64
	// CreateRate is the file-create phase throughput.
	CreateRate float64
}

// MechanismAblation runs mdtest unthrottled, shaped, and policed at the
// same limit. The MDS serves 20K cost units/s, so the unthrottled run
// issues its ~7K calls (~14K units) at about 2.5 times the limit.
func MechanismAblation() ([]MechanismRow, error) {
	const limit = 4000 // ops/s
	run := func(name string, rule *policy.Rule) (MechanismRow, error) {
		clk := clock.NewSim(simEpoch)
		backend := pfs.New(clk, pfs.Config{MDSCapacity: 20_000, MDSBurst: 100})
		stg := stage.New(stage.Info{StageID: "mech", JobID: "mech-job"}, clk)
		if rule != nil {
			stg.ApplyRule(*rule)
		}
		shim := interpose.New(backend, stg, clk)
		var res mdtest.Result
		var err error
		clk.Drive(func() {
			res, err = mdtest.Run(context.Background(), mdtest.Config{
				Client:       posix.NewClient(shim).WithJob("mech-job", "u", 1),
				Dir:          "/bench",
				Ranks:        4,
				FilesPerRank: 250,
				DirsPerRank:  4,
				Clock:        clk,
			})
		})
		if err != nil {
			return MechanismRow{}, err
		}
		var errs int64
		for _, p := range res.Phases {
			errs += p.Errors
		}
		return MechanismRow{
			Mechanism:  name,
			Elapsed:    res.Elapsed,
			Ops:        res.TotalOps(),
			Errors:     errs,
			CreateRate: res.PhaseRate(mdtest.FileCreate),
		}, nil
	}

	var rows []MechanismRow
	row, err := run("unthrottled", nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = run("shape", &policy.Rule{ID: "m", Rate: limit, Burst: 100})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = run("drop", &policy.Rule{ID: "m", Rate: limit, Burst: 100, Action: policy.ActionDrop})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// MechanismCSV returns the comparison as a table, one row per mechanism.
func MechanismCSV(rows []MechanismRow) CSVFile {
	var b strings.Builder
	b.WriteString("mechanism,elapsed_s,ops,rejected,create_ops_per_s\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.3f,%d,%d,%.0f\n", r.Mechanism, r.Elapsed.Seconds(), r.Ops, r.Errors, r.CreateRate)
	}
	return CSVFile{Name: "e9_mechanism.csv", Content: b.String()}
}

// RenderMechanism formats the comparison.
func RenderMechanism(rows []MechanismRow) string {
	var b strings.Builder
	b.WriteString("Ablation — enforcement mechanism (mdtest at a 4 KOps/s limit)\n")
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %14s\n", "mechanism", "elapsed", "ops", "rejected", "create ops/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %10v %10d %10d %14.0f\n",
			r.Mechanism, r.Elapsed.Round(time.Millisecond), r.Ops, r.Errors, r.CreateRate)
	}
	b.WriteString("  (shaping trades completion time; policing trades rejected requests)\n")
	return b.String()
}
