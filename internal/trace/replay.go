package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
	"padll/internal/posix"
)

// Replayer re-submits a metadata trace against a file system, following
// the paper's design (§IV): it is multi-threaded, each thread submits a
// single operation type at a rate that follows the trace's performance
// curve, rates are scaled down (half in the paper), and time is
// accelerated so each replayer second covers a minute of the original log.
//
// Threads target the *cumulative* operation count the trace prescribes:
// when enforcement throttles a thread below its curve, the deficit
// becomes a backlog that drains as soon as the limit allows — reproducing
// the catch-up overshoot visible in Fig. 4.
type Replayer struct {
	// Trace is the log to replay.
	Trace *Trace
	// Submit executes one operation of the given type, blocking while
	// rate limited. Required.
	Submit func(op posix.Op) error
	// Clock paces the replay (real for live runs, simulated for tests).
	Clock clock.Clock
	// Accel compresses time: trace time = wall time * Accel (60 in the
	// paper: one second replays one minute). Default 60.
	Accel float64
	// RateScale multiplies trace rates (0.5 in the paper). Default 0.5.
	RateScale float64
	// Ops restricts replay to these op types (default: all trace ops).
	Ops []posix.Op
	// Tick is the pacing granularity (default 50ms).
	Tick time.Duration
	// Window is the throughput sampling window (default 1s wall time).
	Window time.Duration

	counters map[posix.Op]*metrics.RateCounter
	errCount atomic.Int64
}

// Run replays the trace until it ends or ctx is cancelled. It blocks
// until every op thread finishes and returns the first submission error
// count (submission errors do not abort the replay: a real replayer keeps
// going when single requests fail).
func (r *Replayer) Run(ctx context.Context) error {
	if r.Submit == nil {
		return fmt.Errorf("trace: Replayer.Submit is required")
	}
	if r.Clock == nil {
		r.Clock = clock.NewReal()
	}
	if r.Accel <= 0 {
		r.Accel = 60
	}
	if r.RateScale <= 0 {
		r.RateScale = 0.5
	}
	if r.Tick <= 0 {
		r.Tick = 50 * time.Millisecond
	}
	if r.Window <= 0 {
		r.Window = time.Second
	}
	ops := r.Ops
	if len(ops) == 0 {
		ops = r.Trace.Ops
	}
	r.counters = make(map[posix.Op]*metrics.RateCounter, len(ops))
	for _, op := range ops {
		r.counters[op] = metrics.NewRateCounter(op.String(), r.Clock, r.Window)
	}

	wallDuration := time.Duration(float64(r.Trace.Duration()) / r.Accel)
	// On a clock.Sim under Drive the op threads are its actors.
	g := clock.NewGroup(r.Clock)
	for _, op := range ops {
		g.Go(func() { r.replayOp(ctx, op, wallDuration) })
	}
	g.Wait()
	return nil
}

// replayOp is one per-op-type replayer thread.
func (r *Replayer) replayOp(ctx context.Context, op posix.Op, wallDuration time.Duration) {
	start := r.Clock.Now()
	counter := r.counters[op]
	var target float64 // cumulative ops owed by the trace curve
	var submitted int64
	lastW := time.Duration(0)
	tick := make(chan struct{}, 1)
	t := r.Clock.NewFuncTimer(func() { tick <- struct{}{} })
	defer t.Stop()
	for {
		t.Reset(r.Tick)
		select {
		case <-ctx.Done():
			return
		case <-tick:
		}
		w := r.Clock.Now().Sub(start)
		if w > wallDuration {
			w = wallDuration
		}
		// Integrate the rate curve over [lastW, w] at tick resolution.
		for step := lastW; step < w; step += r.Tick {
			dt := r.Tick
			if step+dt > w {
				dt = w - step
			}
			traceT := time.Duration(float64(step) * r.Accel)
			target += r.Trace.RateAt(op, traceT) * r.RateScale * dt.Seconds()
		}
		lastW = w

		for float64(submitted) < target {
			if ctx.Err() != nil {
				return
			}
			if err := r.Submit(op); err != nil {
				r.errCount.Add(1)
			}
			submitted++
			counter.Add(1)
		}
		if w >= wallDuration {
			return
		}
	}
}

// Series returns the replayed-throughput series for one op (nil before
// Run or for ops not replayed).
func (r *Replayer) Series(op posix.Op) *metrics.Series {
	c, ok := r.counters[op]
	if !ok {
		return nil
	}
	return c.Flush()
}

// Total returns the number of operations submitted for op.
func (r *Replayer) Total(op posix.Op) int64 {
	c, ok := r.counters[op]
	if !ok {
		return 0
	}
	return c.Total()
}

// Errors returns the count of failed submissions.
func (r *Replayer) Errors() int64 { return r.errCount.Load() }

// ---- standard workload: turning op types into real file-system calls ----

// Workload materializes trace operations against a live file system. Each
// op type maps to a concrete call on pre-created files. Housekeeping
// operations (e.g. the open that must precede a replayed close) go
// through Raw, a client below the interposition shim, so only the
// replayed operation itself is intercepted, throttled, and counted.
type Workload struct {
	// Ctl issues the replayed (interposed) operations.
	Ctl *posix.Client
	// Raw issues housekeeping operations directly against the backend.
	Raw *posix.Client
	// Dir is the working directory (created by Prepare).
	Dir string
	// Files is the pre-created file population size (default 64).
	Files int

	mu      sync.Mutex
	next    int
	renames int
	uniq    int
}

// Prepare creates the working directory and file populations. The rename
// population is disjoint from the shared one so the rename thread never
// moves files out from under concurrent open/close/getattr threads.
func (w *Workload) Prepare() error {
	if w.Files <= 0 {
		w.Files = 64
	}
	if err := w.Raw.Mkdir(w.Dir, 0o755); err != nil && err != posix.ErrExist {
		return err
	}
	for i := 0; i < w.Files; i++ {
		for _, p := range []string{w.file(i), w.renameFile(i)} {
			fd, err := w.Raw.Creat(p, 0o644)
			if err != nil {
				return err
			}
			if err := w.Raw.Close(fd); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Workload) file(i int) string {
	return fmt.Sprintf("%s/f%04d", w.Dir, i)
}

func (w *Workload) renameFile(i int) string {
	return fmt.Sprintf("%s/rn%04d", w.Dir, i)
}

func (w *Workload) pick() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.next = (w.next + 1) % w.Files
	return w.file(w.next)
}

func (w *Workload) unique() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.uniq++
	return fmt.Sprintf("%s/u%08d", w.Dir, w.uniq)
}

// Submit executes one operation of the given type; it is the Replayer's
// Submit callback.
func (w *Workload) Submit(op posix.Op) error {
	switch op {
	case posix.OpOpen, posix.OpOpen64:
		fd, err := w.Ctl.Open(w.pick(), posix.ORdOnly, 0)
		if err != nil {
			return err
		}
		// Release the descriptor below the shim so only the open counts.
		return w.Raw.Close(fd)
	case posix.OpCreat:
		fd, err := w.Ctl.Creat(w.unique(), 0o644)
		if err != nil {
			return err
		}
		return w.Raw.Close(fd)
	case posix.OpClose:
		// Acquire the descriptor below the shim so only the close counts.
		fd, err := w.Raw.Open(w.pick(), posix.ORdOnly, 0)
		if err != nil {
			return err
		}
		return w.Ctl.Close(fd)
	case posix.OpGetAttr, posix.OpStat, posix.OpLStat:
		_, err := w.Ctl.GetAttr(w.pick())
		return err
	case posix.OpSetAttr:
		return w.Ctl.SetAttr(w.pick(), 0o640)
	case posix.OpRename:
		// Ping-pong each rename-population file between two names: every
		// file is renamed exactly once per pass, alternating direction
		// between passes.
		w.mu.Lock()
		w.renames++
		n := w.renames
		w.mu.Unlock()
		idx := n % w.Files
		a := w.renameFile(idx)
		b := fmt.Sprintf("%s/rx%04d", w.Dir, idx)
		if (n-1)/w.Files%2 == 1 {
			a, b = b, a
		}
		return w.Ctl.Rename(a, b)
	case posix.OpMkdir:
		return w.Ctl.Mkdir(w.unique(), 0o755)
	case posix.OpRmdir:
		d := w.unique()
		if err := w.Raw.Mkdir(d, 0o755); err != nil {
			return err
		}
		return w.Ctl.Rmdir(d)
	case posix.OpMknod:
		_, err := w.Ctl.Do(&posix.Request{Op: posix.OpMknod, Path: w.unique(), Mode: 0o644})
		return err
	case posix.OpStatFS:
		_, err := w.Ctl.StatFS(w.Dir)
		return err
	case posix.OpSync:
		_, err := w.Ctl.Do(&posix.Request{Op: posix.OpSync})
		return err
	case posix.OpUnlink:
		p := w.unique()
		fd, err := w.Raw.Creat(p, 0o644)
		if err != nil {
			return err
		}
		if err := w.Raw.Close(fd); err != nil {
			return err
		}
		return w.Ctl.Unlink(p)
	}
	return fmt.Errorf("trace: workload cannot execute %v", op)
}
