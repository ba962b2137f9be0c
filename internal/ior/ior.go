// Package ior implements an IOR-like synthetic data-workload generator
// (the paper's data benchmark, §IV). It reproduces the IOR knobs that
// matter for PADLL's evaluation: parallel tasks (ranks), transfer size,
// block size, segment count, read/write phases, file-per-process vs
// shared-file layouts, and sequential vs random access — submitting plain
// POSIX requests through whatever client it is given, so the same
// workload runs against the raw file system (baseline), a passthrough
// shim, or a throttled PADLL stack.
package ior

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/posix"
)

// Mode selects the I/O phases to run.
type Mode int

const (
	// WriteOnly runs only the write phase.
	WriteOnly Mode = iota
	// ReadOnly runs only the read phase (files must exist: run a write
	// phase first or point at an existing dataset).
	ReadOnly
	// WriteThenRead runs a write phase then a read-back phase.
	WriteThenRead
)

// Config parameterizes a run.
type Config struct {
	// Client issues the I/O. Required.
	Client *posix.Client
	// Dir is the working directory (created if missing).
	Dir string
	// NumTasks is the number of parallel ranks (default 1).
	NumTasks int
	// TransferSize is the bytes moved per read/write call (default 256 KiB).
	TransferSize int64
	// BlockSize is each task's contiguous region per segment (default 8 MiB).
	BlockSize int64
	// SegmentCount repeats the block pattern (default 1).
	SegmentCount int
	// Mode selects write/read phases.
	Mode Mode
	// FilePerProcess gives each rank its own file instead of a shared one.
	FilePerProcess bool
	// Random shuffles transfer order within each task's region.
	Random bool
	// Seed drives the random shuffle.
	Seed int64
	// Repeat loops the final phase (the read phase for WriteThenRead,
	// otherwise the only phase) until the context is cancelled — used by
	// duration-bounded experiments that sweep rate limits over a steady
	// stream.
	Repeat bool
	// Clock paces metrics (default real clock). Under clock.Sim.Drive
	// the ranks are its actors, so a run on the simulated clock is
	// deterministic.
	Clock clock.Clock
	// Window is the throughput sampling window (default 1s).
	Window time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Client == nil {
		return c, fmt.Errorf("ior: Client is required")
	}
	if c.Dir == "" {
		c.Dir = "/ior"
	}
	if c.NumTasks <= 0 {
		c.NumTasks = 1
	}
	if c.TransferSize <= 0 {
		c.TransferSize = 256 << 10
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 8 << 20
	}
	if c.BlockSize < c.TransferSize {
		c.BlockSize = c.TransferSize
	}
	if c.SegmentCount <= 0 {
		c.SegmentCount = 1
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	return c, nil
}

// Result reports a run's outcome.
type Result struct {
	// BytesWritten and BytesRead are the payload volumes moved.
	BytesWritten int64
	BytesRead    int64
	// WriteOps and ReadOps count the transfer calls issued.
	WriteOps int64
	ReadOps  int64
	// Elapsed is the wall (or simulated) duration of the run.
	Elapsed time.Duration
	// WriteOpsSeries / ReadOpsSeries are ops/s over sampling windows.
	WriteOpsSeries *metrics.Series
	ReadOpsSeries  *metrics.Series
	// Errors counts failed transfers.
	Errors int64
}

// WriteBandwidth returns the write phase's mean bandwidth in bytes/s.
func (r Result) WriteBandwidth() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesWritten) / r.Elapsed.Seconds()
}

// ReadBandwidth returns the read phase's mean bandwidth in bytes/s.
func (r Result) ReadBandwidth() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesRead) / r.Elapsed.Seconds()
}

// Run executes the workload and blocks until it completes or ctx is
// cancelled.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Client.Mkdir(cfg.Dir, 0o755); err != nil && err != posix.ErrExist {
		return Result{}, fmt.Errorf("ior: mkdir %s: %w", cfg.Dir, err)
	}

	var res Result
	var errCount atomic.Int64
	writeOps := metrics.NewRateCounter("ior-write-ops", cfg.Clock, cfg.Window)
	readOps := metrics.NewRateCounter("ior-read-ops", cfg.Clock, cfg.Window)
	start := cfg.Clock.Now()

	runPhase := func(write bool) (int64, int64) {
		var bytes, ops atomic.Int64
		g := clock.NewGroup(cfg.Clock)
		for task := 0; task < cfg.NumTasks; task++ {
			g.Go(func() {
				b, o := cfg.runTask(ctx, task, write, writeOps, readOps, &errCount)
				bytes.Add(b)
				ops.Add(o)
			})
		}
		g.Wait()
		return bytes.Load(), ops.Load()
	}

	if cfg.Mode == WriteOnly || cfg.Mode == WriteThenRead {
		b, o := runPhase(true)
		res.BytesWritten += b
		res.WriteOps += o
		for cfg.Repeat && cfg.Mode == WriteOnly && ctx.Err() == nil {
			b, o = runPhase(true)
			res.BytesWritten += b
			res.WriteOps += o
		}
	}
	if cfg.Mode == ReadOnly || cfg.Mode == WriteThenRead {
		b, o := runPhase(false)
		res.BytesRead += b
		res.ReadOps += o
		for cfg.Repeat && ctx.Err() == nil {
			b, o = runPhase(false)
			res.BytesRead += b
			res.ReadOps += o
		}
	}

	res.Elapsed = cfg.Clock.Now().Sub(start)
	res.WriteOpsSeries = writeOps.Flush()
	res.ReadOpsSeries = readOps.Flush()
	res.Errors = errCount.Load()
	return res, nil
}

// filePath names a rank's target file.
func (cfg Config) filePath(task int) string {
	if cfg.FilePerProcess {
		return fmt.Sprintf("%s/ior.%04d", cfg.Dir, task)
	}
	return cfg.Dir + "/ior.shared"
}

// runTask executes one rank's transfers for one phase.
func (cfg Config) runTask(ctx context.Context, task int, write bool,
	writeOps, readOps *metrics.RateCounter, errCount *atomic.Int64) (int64, int64) {

	flags := posix.ORdWr | posix.OCreate
	fd, err := cfg.Client.Open(cfg.filePath(task), flags, 0o644)
	if err != nil {
		errCount.Add(1)
		return 0, 0
	}
	defer cfg.Client.Close(fd)

	transfersPerBlock := int(cfg.BlockSize / cfg.TransferSize)
	order := make([]int, transfersPerBlock)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(task)))

	var bytesMoved, ops int64
	buf := make([]byte, cfg.TransferSize)
	for seg := 0; seg < cfg.SegmentCount; seg++ {
		// IOR segmented layout: segment stride covers all tasks' blocks;
		// with file-per-process each task owns the whole block stride.
		var base int64
		if cfg.FilePerProcess {
			base = int64(seg) * cfg.BlockSize
		} else {
			base = (int64(seg)*int64(cfg.NumTasks) + int64(task)) * cfg.BlockSize
		}
		if cfg.Random {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, i := range order {
			if ctx.Err() != nil {
				return bytesMoved, ops
			}
			offset := base + int64(i)*cfg.TransferSize
			if write {
				n, err := cfg.Client.PWrite(fd, buf, offset)
				if err != nil {
					errCount.Add(1)
					continue
				}
				bytesMoved += n
				ops++
				writeOps.Add(1)
			} else {
				data, err := cfg.Client.PRead(fd, cfg.TransferSize, offset)
				if err != nil {
					errCount.Add(1)
					continue
				}
				bytesMoved += int64(len(data))
				ops++
				readOps.Add(1)
			}
		}
	}
	return bytesMoved, ops
}
