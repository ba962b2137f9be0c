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

// TestFrameExchangeZeroAllocs: one steady-state collect over loopback
// TCP — request encoded, written, served, reply demultiplexed, decoded
// and merged — allocates nothing on either side: no retry state, no
// deadline timer or channel, no decoded string the handle already
// holds. Both a quiet stage (empty delta) and a busy one (every round
// reports the managed queue) are covered; AllocsPerRun counts the whole
// process, so the in-process server is held to the same standard.
func TestFrameExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	clk := clock.NewSim(epoch)
	stg, h := servedOverTCP(t, clk)
	var dst stage.Stats
	collect := func() {
		if _, _, err := h.Exec(nil, &dst, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		collect()
	}
	if avg := testing.AllocsPerRun(200, collect); avg != 0 {
		t.Errorf("steady-state collect of a quiet stage allocates %.2f allocs/exchange, want 0", avg)
	}

	req := &posix.Request{Op: posix.OpOpen, Path: "/f", JobID: "j1"}
	busy := func() {
		stg.Offer(req, 3, time.Millisecond)
		collect()
	}
	for i := 0; i < 8; i++ {
		busy()
	}
	if avg := testing.AllocsPerRun(200, busy); avg != 0 {
		t.Errorf("steady-state collect of a busy stage allocates %.2f allocs/exchange, want 0", avg)
	}
	if fulls, deltas := h.CollectCounts(); fulls != 1 || deltas == 0 {
		t.Errorf("%d full / %d delta collects: the measured exchanges were not the steady state", fulls, deltas)
	}
}

// BenchmarkFrameExchange is one serial steady-state collect over
// loopback TCP: what a control round pays per stage once nothing but
// the wire is left — two writes, two reads, two goroutine hand-offs.
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
