// Command padll-replayer replays a metadata trace against a PADLL-
// interposed file-system stack, reproducing the paper's evaluation
// methodology (§IV): one thread per operation type, rates scaled down,
// time accelerated so each replayer second covers a minute of the log.
//
// The replayed operations run against an in-memory local file system (as
// the paper's metadata experiments do, to avoid harming a production
// PFS); the stage's control service can be exposed so padll-ctl or
// padll-controller can throttle the replay live. A stage registered
// with a controller takes the controller's rounds as its sign of life:
// when its connection closes, or serves no round for two loop periods
// plus a call's deadline, it freezes its limits, reports itself
// degraded and registers again until it succeeds.
//
// Usage:
//
//	padll-replayer -synthetic -ops open,close,getattr -duration 30s \
//	    -rule 'limit id:meta class:metadata rate:10k'
//	padll-replayer -trace trace.csv -serve :7171 -controller 127.0.0.1:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"padll"
	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/posix"
	"padll/internal/trace"
)

func main() {
	var (
		traceFile  = flag.String("trace", "", "trace CSV to replay (see padll-tracegen)")
		synthetic  = flag.Bool("synthetic", false, "generate a single-MDT ABCI-like trace instead of reading one")
		seed       = flag.Int64("seed", 2022, "seed for -synthetic")
		opsFlag    = flag.String("ops", "", "comma-separated op types to replay (default: all in the trace)")
		rateScale  = flag.Float64("rate-scale", 0.5, "rate scale (the paper replays at half rate)")
		accel      = flag.Float64("accel", 60, "time acceleration (60: 1s wall = 1min trace)")
		duration   = flag.Duration("duration", 30*time.Second, "wall-clock replay budget (0 = full trace)")
		ruleFlag   = flag.String("rule", "", "QoS rule to install locally (DSL form)")
		jobID      = flag.String("job", "replay-job", "job ID stamped on requests")
		serve      = flag.String("serve", "", "expose the stage control service on this address")
		controller = flag.String("controller", "", "register with this control plane")
		files      = flag.Int("files", 128, "pre-created file population")
	)
	flag.Parse()

	clk := clock.NewReal()

	var tr *trace.Trace
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.ReadCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	case *synthetic:
		tr = trace.SingleMDT(trace.PFSALike(*seed))
	default:
		fatal(fmt.Errorf("need -trace FILE or -synthetic"))
	}

	var ops []posix.Op
	if *opsFlag != "" {
		for _, name := range strings.Split(*opsFlag, ",") {
			op, err := posix.ParseOp(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			ops = append(ops, op)
		}
		tr = tr.Filter(ops...)
	}

	// Build the stack: app -> shim -> local FS (the paper submits
	// metadata workloads to the node-local file system).
	backend := localfs.New(clk)
	hostname, _ := os.Hostname()
	dp, err := padll.NewDataPlane(
		padll.JobInfo{JobID: *jobID, User: os.Getenv("USER"), PID: os.Getpid(), Hostname: hostname},
		padll.MountPFS("/", backend),
	)
	if err != nil {
		fatal(err)
	}
	defer dp.Close()
	if *ruleFlag != "" {
		rule, err := padll.ParseRule(*ruleFlag)
		if err != nil {
			fatal(err)
		}
		dp.ApplyRule(rule)
		fmt.Println("installed", rule.String())
	}
	if *serve != "" {
		if err := dp.Serve(*serve, *controller); err != nil {
			fatal(err)
		}
		fmt.Println("stage control service on", dp.Addr())
	}

	w := &trace.Workload{
		Ctl:   dp.Client(),
		Raw:   dp.RawClient(), // below the shim, same descriptor namespace
		Dir:   "/replay",
		Files: *files,
	}
	if err := w.Prepare(); err != nil {
		fatal(err)
	}

	r := &trace.Replayer{
		Trace:     tr,
		Submit:    w.Submit,
		Accel:     *accel,
		RateScale: *rateScale,
		Ops:       ops,
	}

	ctx, cancel := context.WithCancel(context.Background())
	if *duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, *duration)
	}
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()

	fmt.Printf("replaying %v of trace (%d samples, %d op types) at %.0fx accel, %.0f%% rate\n",
		tr.Duration(), tr.Len(), len(tr.Ops), *accel, *rateScale*100)
	start := clk.Now()
	if err := r.Run(ctx); err != nil {
		fatal(err)
	}
	elapsed := clk.Now().Sub(start)

	fmt.Printf("done in %v (%d submission errors)\n", elapsed.Round(time.Millisecond), r.Errors())
	replayed := ops
	if len(replayed) == 0 {
		replayed = tr.Ops
	}
	for _, op := range replayed {
		s := r.Series(op)
		if s == nil || s.Len() == 0 {
			continue
		}
		fmt.Printf("  %-10s total=%-10d mean=%8.0f/s peak=%8.0f/s\n",
			op, r.Total(op), s.Mean(), s.Max())
	}
	if deg := dp.DegradedFor(); deg > 0 {
		fmt.Printf("controller degraded for %v of the run\n", deg.Round(time.Millisecond))
	}
	stats := dp.Stats()
	for _, q := range stats.Queues {
		line := fmt.Sprintf("  queue %-12s throttled to %8.0f/s, admitted %d", q.RuleID, q.Limit, q.Total)
		if q.WaitP99 > 0 {
			line += fmt.Sprintf(", wait p50/p99 %v/%v",
				time.Duration(q.WaitP50*float64(time.Second)).Round(time.Microsecond),
				time.Duration(q.WaitP99*float64(time.Second)).Round(time.Microsecond))
		}
		fmt.Println(line)
	}
	if svc, ok := dp.ControlServiceStats(); ok {
		fmt.Printf("  control service: %d calls (%d batched ops), collects %d delta / %d full\n",
			svc.Calls, svc.BatchedOps, svc.DeltaCollects, svc.FullCollects)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "padll-replayer:", err)
	os.Exit(1)
}
