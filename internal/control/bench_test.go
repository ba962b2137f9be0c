package control

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

// The fleet benchmarks measure one feedback-loop round (RunOnce) at
// increasing stage counts over the batched protocol (a StageHandle each): one
// Stage.Batch round trip per stage carrying the collect, all of them
// started before the first is awaited; steady-state collects are
// incremental deltas and unchanged rates skip the push round trip
// entirely.
//
// Each stage carries a realistic rule set (the managed control queue
// plus benchRulesPerStage administrator rules), so a full snapshot has
// real serialization weight, as it does on a production stage.
const (
	benchJobs          = 8
	benchRulesPerStage = 8
)

var benchEpoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// benchStage builds one stage preloaded with admin rules.
func benchStage(i int) *stage.Stage {
	job := fmt.Sprintf("job%02d", i%benchJobs)
	stg := stage.New(stage.Info{
		StageID:  fmt.Sprintf("s%04d", i),
		JobID:    job,
		Hostname: fmt.Sprintf("node%03d", i/8),
		PID:      1000 + i,
	}, clock.NewSim(benchEpoch))
	for r := 0; r < benchRulesPerStage; r++ {
		stg.ApplyRule(policy.Rule{
			ID:   fmt.Sprintf("admin-%02d", r),
			Rate: float64(1000 * (r + 1)),
		})
	}
	return stg
}

// benchController builds the controller the fleet registers with:
// FixedRates with a reservation per job, so every round allocates the
// same nonzero rates — the steady state a long-lived fleet sits in.
func benchController() *Controller {
	ctl := New(clock.NewReal(), WithClusterLimit(1_000_000), WithAlgorithm(FixedRates{}))
	for j := 0; j < benchJobs; j++ {
		ctl.SetReservation(fmt.Sprintf("job%02d", j), float64(1000*(j+1)))
	}
	return ctl
}

// benchFleetTCP serves n stages over real TCP (each on its own loopback
// listener, as deployed fleets do) and registers them.
func benchFleetTCP(b *testing.B, n int, opts ...rpcio.DialOption) *Controller {
	b.Helper()
	ctl := benchController()
	for i := 0; i < n; i++ {
		stg := benchStage(i)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		stop := rpcio.ServeStage(l, stg)
		b.Cleanup(stop)
		h, err := rpcio.DialStage(l.Addr().String(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		if err := ctl.Register(stg.Info(), h); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetLoopback wires n stages in process (rpcio.LocalStage) — no
// sockets, but every exchange runs the frame transport over an
// in-memory conn, with exact frame-byte accounting — which is what lets
// a single machine hold a 1024-stage fleet and still report a truthful
// wireB/round.
func benchFleetLoopback(tb testing.TB, n int) *Controller {
	tb.Helper()
	ctl := benchController()
	for i := 0; i < n; i++ {
		stg := benchStage(i)
		h := rpcio.LocalStage(rpcio.NewStageService(stg), nil)
		if err := ctl.Register(stg.Info(), h); err != nil {
			tb.Fatal(err)
		}
	}
	return ctl
}

func runRounds(b *testing.B, ctl *Controller) {
	// Three rounds off the clock: the first pays the one-time full
	// snapshots and initial rate pushes, the second carries the deltas
	// those pushes caused and warms the buffers the first exchanges
	// sized, and the third is the first steady round — the one whose
	// wire bytes are reported, because a timed round's acknowledged
	// generations widen as b.N grows and the third round's never move.
	// Then collect the fleet-construction garbage off the clock too: at
	// 10k stages the setup litter is tens of millions of objects, and
	// letting the timed loop inherit that debt makes ns/op a function of
	// b.N rather than of the round being measured.
	if ctl.RunOnce() == nil {
		b.Fatal("RunOnce returned nil allocation")
	}
	ctl.RunOnce()
	ctl.RunOnce()
	steady, ok := ctl.LastRound()
	if !ok {
		b.Fatal("no round stats recorded")
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.RunOnce()
	}
	b.StopTimer()
	rs, _ := ctl.LastRound()
	b.ReportMetric(float64(rs.RPCs()), "rpcs/round")
	b.ReportMetric(float64(steady.BytesRead+steady.BytesWritten), "wireB/round")
}

func BenchmarkControllerRunOnce64(b *testing.B) {
	runRounds(b, benchFleetTCP(b, 64))
}

func BenchmarkControllerRunOnce256(b *testing.B) {
	runRounds(b, benchFleetTCP(b, 256))
}

func BenchmarkControllerRunOnce1024(b *testing.B) {
	runRounds(b, benchFleetLoopback(b, 1024))
}
