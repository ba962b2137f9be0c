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
// increasing stage counts over the batched protocol (RemoteConn): one
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
	ctl := New(nil, WithClusterLimit(1_000_000), WithAlgorithm(FixedRates{}))
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
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetLoopback wires n stages through the encoded in-process
// transport — no sockets, but every exchange round-trips through the
// binary wire codec with exact frame-byte accounting — which is what
// lets a single machine hold a 1024-stage fleet and still report a
// truthful wireB/round.
func benchFleetLoopback(b *testing.B, n int) *Controller {
	b.Helper()
	ctl := benchController()
	for i := 0; i < n; i++ {
		stg := benchStage(i)
		h := rpcio.EncodedLoopbackStage(rpcio.NewStageService(stg))
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// benchFleetMux serves n stages from one FrameServer on a single TCP
// listener and dials them through the shared multiplexed connection —
// the deployment shape where one node hosts many stages.
func benchFleetMux(b *testing.B, n int, opts ...rpcio.DialOption) *Controller {
	b.Helper()
	ctl := benchController()
	fs := rpcio.NewFrameServer()
	stages := make([]*stage.Stage, n)
	for i := 0; i < n; i++ {
		stages[i] = benchStage(i)
		fs.Add(rpcio.NewStageService(stages[i]))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	stop := rpcio.ServeMux(l, fs)
	b.Cleanup(stop)
	for i := 0; i < n; i++ {
		stg := stages[i]
		h, err := rpcio.DialStage(l.Addr().String(),
			append([]rpcio.DialOption{rpcio.WithMuxStage(stg.Info().StageID)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { h.Close() })
		if err := ctl.Register(NewRemoteConn(stg.Info(), h)); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

func runRounds(b *testing.B, ctl *Controller) {
	// Two rounds off the clock: the first pays the one-time full
	// snapshots and initial rate pushes, the second warms the delta and
	// reply buffers those first exchanges sized. Then collect the
	// fleet-construction garbage off the clock too: at 10k stages the
	// setup litter is tens of millions of objects, and letting the timed
	// loop inherit that debt makes ns/op a function of b.N rather than
	// of the round being measured.
	if ctl.RunOnce() == nil {
		b.Fatal("RunOnce returned nil allocation")
	}
	ctl.RunOnce()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.RunOnce()
	}
	b.StopTimer()
	rs, ok := ctl.LastRound()
	if !ok {
		b.Fatal("no round stats recorded")
	}
	b.ReportMetric(float64(rs.RPCs()), "rpcs/round")
	b.ReportMetric(float64(rs.BytesRead+rs.BytesWritten), "wireB/round")
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

// ...Mux256 serves all 256 stages from one listener and multiplexes
// every handle over a single shared TCP connection — the per-node
// deployment shape — instead of 256 sockets.
func BenchmarkControllerRunOnceMux256(b *testing.B) {
	runRounds(b, benchFleetMux(b, 256))
}
