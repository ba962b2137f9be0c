package rpcio

import (
	"net"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// servedOverTCP serves a two-rule stage on a loopback listener and
// returns it with a dialed handle.
func servedOverTCP(tb testing.TB, clk clock.Clock) (*stage.Stage, *StageHandle) {
	tb.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clk)
	stg.ApplyRule(policy.Rule{ID: "meta", Match: policy.Matcher{Classes: []posix.Class{posix.ClassMetadata}}, Rate: policy.Unlimited})
	stg.ApplyRule(policy.Rule{ID: "padll-control", Match: policy.Matcher{JobID: "j1"}, Rate: 1000})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	stop := ServeStage(l, stg)
	tb.Cleanup(stop)
	h, err := DialStage(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = h.Close() })
	return stg, h
}

// servedFleetOverTCP is n servedOverTCP stages, each on its own listener
// and connection, as a deployed fleet is.
func servedFleetOverTCP(tb testing.TB, n int) ([]*stage.Stage, []*StageHandle) {
	tb.Helper()
	clk := clock.NewSim(epoch)
	stages, handles := make([]*stage.Stage, n), make([]*StageHandle, n)
	for i := range handles {
		stages[i], handles[i] = servedOverTCP(tb, clk)
	}
	return stages, handles
}

// pipelined is one overlapped round over handles: every exchange
// started, then every exchange finished, each into its own slot.
func pipelined(tb testing.TB, handles []*StageHandle, dst []stage.Stats) {
	for i, h := range handles {
		h.Start(nil, &dst[i], true)
	}
	for _, h := range handles {
		if _, _, err := h.Finish(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFrameExchangeZeroAllocs: a steady-state collect over loopback
// TCP — request encoded, written, served, reply read, decoded
// and merged — allocates nothing on either side: no retry state, no
// deadline timer or channel, no decoded string the handle already
// holds, and no token for the exchange in flight, whether it is one
// blocking exchange or eight started before the first is finished.
// Both a quiet stage (empty delta) and a busy one (every round reports
// the managed queue) are covered; AllocsPerRun counts the whole
// process, so the in-process servers are held to the same standard.
func TestFrameExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const fleet = 8
	stages, handles := servedFleetOverTCP(t, fleet)
	dst := make([]stage.Stats, fleet)
	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "j1"}
	offer := func() {
		for _, stg := range stages {
			stg.Offer(req, 3, time.Millisecond)
		}
	}
	serial := func() {
		if _, _, err := handles[0].Exec(nil, &dst[0], true); err != nil {
			t.Fatal(err)
		}
	}
	overlapped := func() { pipelined(t, handles, dst) }
	for _, tc := range []struct {
		name      string
		exchanges float64
		run       func()
	}{
		{"one blocking exchange with a quiet stage", 1, serial},
		{"eight overlapped exchanges with quiet stages", fleet, overlapped},
		{"one blocking exchange with a busy stage", 1, func() { offer(); serial() }},
		{"eight overlapped exchanges with busy stages", fleet, func() { offer(); overlapped() }},
	} {
		for i := 0; i < 8; i++ {
			tc.run()
		}
		if avg := testing.AllocsPerRun(200, tc.run); avg != 0 {
			t.Errorf("%s: %.2f allocs/exchange, want 0", tc.name, avg/tc.exchanges)
		}
	}
	for i, h := range handles {
		if fulls, deltas := h.CollectCounts(); fulls != 1 || deltas == 0 {
			t.Errorf("handle %d: %d full / %d delta collects: the measured exchanges were not the steady state", i, fulls, deltas)
		}
	}
}

// BenchmarkFrameExchange is one serial steady-state collect over
// loopback TCP: what a stage costs when nothing overlaps it — two
// writes, two reads that return data and two goroutine hand-offs (to
// the server, and back to the caller blocked in its read).
func BenchmarkFrameExchange(b *testing.B) {
	_, h := servedOverTCP(b, clock.NewSim(epoch))
	var dst stage.Stats
	for i := 0; i < 8; i++ {
		if _, _, err := h.Exec(nil, &dst, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Exec(nil, &dst, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameExchangePipelined is the same collect with eight stages
// in flight at once from one goroutine — start all, finish all, as one
// of a round's goroutines does; ns/op is per exchange, so the quotient
// against BenchmarkFrameExchange is what the overlap buys.
func BenchmarkFrameExchangePipelined(b *testing.B) {
	const fleet = 8
	_, handles := servedFleetOverTCP(b, fleet)
	dst := make([]stage.Stats, fleet)
	for i := 0; i < 8; i++ {
		pipelined(b, handles, dst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += fleet {
		pipelined(b, handles, dst)
	}
}
