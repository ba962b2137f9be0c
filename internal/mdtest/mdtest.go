// Package mdtest implements an mdtest-like metadata benchmark: the
// standard HPC tool for stressing exactly the file-system resource PADLL
// protects. Like mdtest, it runs phased bulk operations — directory
// creation, file creation, stat, read(0-byte), and removal — across a
// per-rank directory tree, and reports each phase's throughput in
// operations per second.
//
// Because it drives plain POSIX calls through whatever client it is
// given, the same run exercises the raw file system (baseline), a
// passthrough PADLL shim, or a throttled stack — making it the natural
// companion to the paper's IOR data benchmark (§IV).
package mdtest

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/posix"
)

// Phase identifies one benchmark phase.
type Phase int

// The benchmark phases, in execution order.
const (
	// DirCreate creates the per-rank directory trees.
	DirCreate Phase = iota
	// FileCreate creates the file population.
	FileCreate
	// FileStat stats every file.
	FileStat
	// FileRead opens, reads zero bytes, and closes every file.
	FileRead
	// FileRemove unlinks every file.
	FileRemove
	// DirRemove removes the directory trees.
	DirRemove
	numPhases
)

var phaseNames = [...]string{
	"dir-create", "file-create", "file-stat", "file-read", "file-remove", "dir-remove",
}

// String returns the mdtest-style phase name.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Phases lists all phases in order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Config parameterizes a run.
type Config struct {
	// Client issues the operations. Required.
	Client *posix.Client
	// Dir is the benchmark root (created if missing).
	Dir string
	// Ranks is the parallel task count (default 1).
	Ranks int
	// FilesPerRank is each rank's file population (default 256).
	FilesPerRank int
	// DirsPerRank is each rank's directory count; files spread across
	// them round-robin (default 4).
	DirsPerRank int
	// Clock paces throughput measurement (default real). Under
	// clock.Sim.Drive the ranks are its actors, so a run on the simulated
	// clock is deterministic.
	Clock clock.Clock
}

func (c Config) withDefaults() (Config, error) {
	if c.Client == nil {
		return c, fmt.Errorf("mdtest: Client is required")
	}
	if c.Dir == "" {
		c.Dir = "/mdtest"
	}
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.FilesPerRank <= 0 {
		c.FilesPerRank = 256
	}
	if c.DirsPerRank <= 0 {
		c.DirsPerRank = 4
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	return c, nil
}

// PhaseResult reports one phase's outcome.
type PhaseResult struct {
	Phase   Phase
	Ops     int64
	Elapsed time.Duration
	Errors  int64
}

// Rate returns the phase throughput in ops/second.
func (r PhaseResult) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Result is a full run's outcome.
type Result struct {
	Phases  []PhaseResult
	Elapsed time.Duration
}

// TotalOps sums operations across phases.
func (r Result) TotalOps() int64 {
	var n int64
	for _, p := range r.Phases {
		n += p.Ops
	}
	return n
}

// PhaseRate returns the named phase's rate (0 if absent).
func (r Result) PhaseRate(p Phase) float64 {
	for _, pr := range r.Phases {
		if pr.Phase == p {
			return pr.Rate()
		}
	}
	return 0
}

// Render formats the result like mdtest's summary table.
func (r Result) Render() string {
	out := fmt.Sprintf("mdtest summary (%v total)\n", r.Elapsed.Round(time.Millisecond))
	out += fmt.Sprintf("  %-12s %10s %12s %8s\n", "phase", "ops", "ops/sec", "errors")
	for _, p := range r.Phases {
		out += fmt.Sprintf("  %-12s %10d %12.0f %8d\n", p.Phase, p.Ops, p.Rate(), p.Errors)
	}
	return out
}

// Run executes the benchmark: every phase runs to completion across all
// ranks before the next begins (mdtest's barrier semantics).
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Client.Mkdir(cfg.Dir, 0o755); err != nil && err != posix.ErrExist {
		return Result{}, fmt.Errorf("mdtest: mkdir %s: %w", cfg.Dir, err)
	}

	start := cfg.Clock.Now()
	var res Result
	for _, phase := range Phases() {
		if ctx.Err() != nil {
			break
		}
		pr := cfg.runPhase(ctx, phase)
		res.Phases = append(res.Phases, pr)
	}
	res.Elapsed = cfg.Clock.Now().Sub(start)
	return res, nil
}

// rankDir names one rank's d-th directory.
func (cfg Config) rankDir(rank, d int) string {
	return fmt.Sprintf("%s/rank%03d.d%02d", cfg.Dir, rank, d)
}

// filePath names a rank's i-th file, spread across its directories.
func (cfg Config) filePath(rank, i int) string {
	return fmt.Sprintf("%s/f%06d", cfg.rankDir(rank, i%cfg.DirsPerRank), i)
}

// runPhase executes one phase across all ranks with a completion barrier.
func (cfg Config) runPhase(ctx context.Context, phase Phase) PhaseResult {
	var ops, errs atomic.Int64
	start := cfg.Clock.Now()
	g := clock.NewGroup(cfg.Clock)
	for rank := 0; rank < cfg.Ranks; rank++ {
		g.Go(func() { cfg.runRank(ctx, phase, rank, &ops, &errs) })
	}
	g.Wait()
	return PhaseResult{
		Phase:   phase,
		Ops:     ops.Load(),
		Elapsed: cfg.Clock.Now().Sub(start),
		Errors:  errs.Load(),
	}
}

func (cfg Config) runRank(ctx context.Context, phase Phase, rank int, ops, errs *atomic.Int64) {
	c := cfg.Client
	count := func(err error) {
		ops.Add(1)
		if err != nil {
			errs.Add(1)
		}
	}
	switch phase {
	case DirCreate:
		for d := 0; d < cfg.DirsPerRank; d++ {
			if ctx.Err() != nil {
				return
			}
			count(c.Mkdir(cfg.rankDir(rank, d), 0o755))
		}
	case FileCreate:
		for i := 0; i < cfg.FilesPerRank; i++ {
			if ctx.Err() != nil {
				return
			}
			fd, err := c.Creat(cfg.filePath(rank, i), 0o644)
			if err == nil {
				err = c.Close(fd)
			}
			count(err)
		}
	case FileStat:
		for i := 0; i < cfg.FilesPerRank; i++ {
			if ctx.Err() != nil {
				return
			}
			_, err := c.Stat(cfg.filePath(rank, i))
			count(err)
		}
	case FileRead:
		for i := 0; i < cfg.FilesPerRank; i++ {
			if ctx.Err() != nil {
				return
			}
			fd, err := c.Open(cfg.filePath(rank, i), posix.ORdOnly, 0)
			if err == nil {
				_, err = c.Read(fd, 0)
				if cerr := c.Close(fd); err == nil {
					err = cerr
				}
			}
			count(err)
		}
	case FileRemove:
		for i := 0; i < cfg.FilesPerRank; i++ {
			if ctx.Err() != nil {
				return
			}
			count(c.Unlink(cfg.filePath(rank, i)))
		}
	case DirRemove:
		for d := 0; d < cfg.DirsPerRank; d++ {
			if ctx.Err() != nil {
				return
			}
			count(c.Rmdir(cfg.rankDir(rank, d)))
		}
	}
}
