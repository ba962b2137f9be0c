// Command padll-controller runs the PADLL control plane: it serves the
// registration endpoint data-plane stages dial at job start, and runs the
// feedback control loop that continuously retunes every job's metadata
// rate (§III-B of the paper).
//
// Usage:
//
//	padll-controller -listen :7070 -algorithm proportional -limit 300k \
//	    -reserve job1=40k -reserve job2=60k -interval 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"padll"
	"padll/internal/policy"
)

// reservations accumulates repeated -reserve job=rate flags.
type reservations map[string]float64

func (r reservations) String() string { return fmt.Sprint(map[string]float64(r)) }

func (r reservations) Set(s string) error {
	job, rateStr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want job=rate, got %q", s)
	}
	rule, err := policy.Parse("limit id:tmp rate:" + rateStr)
	if err != nil {
		return err
	}
	r[job] = rule.Rate
	return nil
}

func main() {
	res := reservations{}
	var (
		listen    = flag.String("listen", "127.0.0.1:7070", "registration endpoint address")
		algorithm = flag.String("algorithm", "proportional", "control algorithm: static | priority | proportional | none")
		limit     = flag.Float64("limit", 300_000, "cluster-wide metadata rate limit (ops/s)")
		perJob    = flag.Float64("static-per-job", 0, "static setup: fixed per-job rate (0 = divide limit)")
		interval  = flag.Duration("interval", time.Second, "feedback loop period")
		report    = flag.Duration("report", 5*time.Second, "allocation report period (0 = quiet)")
		evict     = flag.Int("evict-after", 3, "deregister a stage after this many consecutive failed control rounds (0 = never)")
		httpAddr  = flag.String("http", "", "HTTP monitor address (e.g. 127.0.0.1:8080; empty = disabled)")
	)
	flag.Var(res, "reserve", "per-job reservation, repeatable: job=rate (rates accept k/m suffixes)")
	flag.Parse()

	var alg padll.Algorithm
	switch *algorithm {
	case "static":
		alg = padll.StaticShare(*perJob)
	case "priority":
		alg = padll.Priority()
	case "proportional":
		alg = padll.ProportionalShare()
	case "none":
		alg = nil
	default:
		fmt.Fprintf(os.Stderr, "padll-controller: unknown algorithm %q\n", *algorithm)
		os.Exit(2)
	}

	opts := []padll.ControlOption{padll.WithClusterLimit(*limit)}
	if alg != nil {
		opts = append(opts, padll.WithAlgorithm(alg))
	}
	if *evict > 0 {
		opts = append(opts, padll.WithEvictAfter(*evict))
	}
	cp := padll.NewControlPlane(opts...)
	for job, rate := range res {
		cp.SetReservation(job, rate)
	}

	addr, err := cp.Serve(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "padll-controller:", err)
		os.Exit(1)
	}
	fmt.Printf("padll-controller: registrar on %s, algorithm=%s, limit=%.0f ops/s\n", addr, *algorithm, *limit)
	if *httpAddr != "" {
		monAddr, err := cp.ServeMonitor(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "padll-controller:", err)
			os.Exit(1)
		}
		fmt.Printf("padll-controller: HTTP monitor on http://%s/\n", monAddr)
	}
	if alg != nil {
		cp.Run(*interval)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *report > 0 {
		ticker := time.NewTicker(*report)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				cp.Stop()
				return
			case <-ticker.C:
				printReport(cp)
			}
		}
	}
	<-stop
	cp.Stop()
}

func printReport(cp *padll.ControlPlane) {
	snaps := cp.Collect()
	if len(snaps) == 0 {
		fmt.Println("  (no registered jobs)")
		return
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].JobID < snaps[j].JobID })
	for _, s := range snaps {
		line := fmt.Sprintf("  job %-12s stages=%d demand=%8.0f throughput=%8.0f allocated=%8.0f",
			s.JobID, s.Stages, s.Demand, s.Throughput, s.Allocated)
		if s.DegradedStages > 0 {
			line += fmt.Sprintf(" degraded=%d", s.DegradedStages)
		}
		if s.FailedStages > 0 {
			line += fmt.Sprintf(" failed=%d", s.FailedStages)
		}
		fmt.Println(line)
	}
	if rs, ok := cp.LastRound(); ok {
		fmt.Printf("  round: %d stages, %d rpcs (%d pushes skipped), %d B on wire, %s\n",
			rs.Stages, rs.RPCs(), rs.PushesSkipped,
			rs.BytesRead+rs.BytesWritten, rs.Duration.Round(time.Microsecond))
	}
}
