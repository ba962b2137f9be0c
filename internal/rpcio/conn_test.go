// Failure-mode tests for the frame transport's connections: a fleet of
// stages, each behind its own listener and reached by a handle of its
// own, and the ways a connection can die or misbehave at frame
// granularity.
package rpcio

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/policy"
	"padll/internal/posix"
	"padll/internal/stage"
)

// countingListener counts accepted connections, proving how many TCP
// sockets a fleet of handles actually opened.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// killSwitchConn kills the connection in the middle of the next frame
// write once armed: half the frame reaches the peer, then the socket
// closes. This is the mid-frame drop a crashing server produces.
type killSwitchConn struct {
	net.Conn
	arm *atomic.Bool
}

func (c *killSwitchConn) Write(p []byte) (int, error) {
	if c.arm.CompareAndSwap(true, false) {
		half := len(p) / 2
		if half > 0 {
			_, _ = c.Conn.Write(p[:half])
		}
		_ = c.Conn.Close()
		return half, errors.New("rpcio test: connection killed mid-frame")
	}
	return c.Conn.Write(p)
}

type killSwitchListener struct {
	net.Listener
	arm *atomic.Bool
}

func (l *killSwitchListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &killSwitchConn{Conn: c, arm: l.arm}, nil
}

// servedFleet serves n stages, each behind its own listener (wrapped by
// wrap, if non-nil), and dials one handle per stage.
func servedFleet(t *testing.T, n int, wrap func(net.Listener) net.Listener, opts ...DialOption) ([]*stage.Stage, []*StageHandle) {
	t.Helper()
	clk := clock.NewSim(epoch)
	stages := make([]*stage.Stage, n)
	handles := make([]*StageHandle, n)
	for i := range stages {
		stages[i] = stage.New(stage.Info{StageID: fmt.Sprintf("m%d", i), JobID: "jm", Hostname: "h", PID: i + 1, User: "u"}, clk)
		base, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := base
		if wrap != nil {
			l = wrap(base)
		}
		t.Cleanup(ServeStage(l, stages[i]))
		h, err := DialStage(base.Addr().String(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		handles[i] = h
	}
	return stages, handles
}

// TestInterleavedRepliesRouteCorrectly hammers every handle from many
// goroutines at once; every reply must reach the caller that issued it
// (and the race detector watches the read path).
func TestInterleavedRepliesRouteCorrectly(t *testing.T) {
	_, handles := servedFleet(t, 4, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i, h := range handles {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(i int, h *StageHandle) {
				defer wg.Done()
				want := fmt.Sprintf("m%d", i)
				for k := 0; k < 50; k++ {
					info, err := ping(h)
					if err != nil {
						errs <- fmt.Errorf("ping %s: %w", want, err)
						return
					}
					if info.StageID != want {
						errs <- fmt.Errorf("reply for %q delivered to %q's caller", info.StageID, want)
						return
					}
				}
			}(i, h)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMidFrameDropRedialsAndResyncs arms a mid-frame connection kill
// on a Stage.Batch reply: the stage has applied the exchange (its delta
// generation advanced) but the controller's handle never saw the reply.
// The handle must kill its connection, redial, and —
// because its acknowledgement is now stale — receive a full-snapshot
// resync that reconverges with the stage's true state.
func TestMidFrameDropRedialsAndResyncs(t *testing.T) {
	arm := &atomic.Bool{}
	stages, handles := servedFleet(t, 1, func(l net.Listener) net.Listener {
		return &killSwitchListener{Listener: l, arm: arm}
	}, withDelays(5*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond))
	stg, h := stages[0], handles[0]

	var got stage.Stats
	if err := h.CollectDeltaInto(&got); err != nil { // initial full snapshot
		t.Fatal(err)
	}
	stg.ApplyRule(policy.Rule{ID: "r1", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 100})
	if err := h.CollectDeltaInto(&got); err != nil { // incremental
		t.Fatal(err)
	}

	stg.SetRate("r1", 250)
	arm.Store(true) // next reply frame dies halfway across
	if err := h.CollectDeltaInto(&got); err != nil {
		t.Fatalf("collect across a mid-frame drop: %v", err)
	}
	if !sameStats(got, stg.Collect()) {
		t.Errorf("post-drop snapshot diverged:\n got: %+v\nwant: %+v", got, stg.Collect())
	}
	fulls, deltas := h.CollectCounts()
	if fulls < 2 {
		t.Errorf("%d full snapshots, want >= 2: the dropped reply left a stale ack that only a full resync repairs", fulls)
	}
	if deltas == 0 {
		t.Error("no incremental collects at all")
	}

	// The connection must be healthy again: further mutations flow
	// incrementally.
	stg.SetRate("r1", 300)
	if err := h.CollectDeltaInto(&got); err != nil {
		t.Fatal(err)
	}
	if !sameStats(got, stg.Collect()) {
		t.Errorf("post-recovery snapshot diverged:\n got: %+v\nwant: %+v", got, stg.Collect())
	}
}

// TestSurvivesFlakyFrameBoundaries runs a fleet through a wire that
// drops every Nth frame outright: per-call deadlines catch the holes,
// the connection redials, and every call still lands on (and returns
// from) the right stage.
func TestSurvivesFlakyFrameBoundaries(t *testing.T) {
	stages, handles := servedFleet(t, 2, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: l, Flaky: Flakiness{DropEvery: 5}}
	},
		withCallTimeout(150*time.Millisecond),
		withDelays(5*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond))

	for round := 0; round < 8; round++ {
		for i, h := range handles {
			info, err := ping(h)
			if err != nil {
				t.Fatalf("round %d ping m%d: %v", round, i, err)
			}
			if want := fmt.Sprintf("m%d", i); info.StageID != want {
				t.Fatalf("round %d: reply for %q reached %q's caller", round, info.StageID, want)
			}
		}
	}
	if err := applyRule(handles[1], policy.Rule{ID: "flaky-rule", Rate: 7}); err != nil {
		t.Fatal(err)
	}
	if got := len(stages[1].Rules()); got != 1 {
		t.Errorf("stage m1 has %d rules after flaky apply, want 1", got)
	}
	if got := len(stages[0].Rules()); got != 0 {
		t.Errorf("stage m0 has %d rules, want 0 — mutation crossed stages", got)
	}
}

// TestDuplicatedReplyFramesAreDiscarded: a wire that duplicates every
// frame must not desynchronize the read path — a duplicate's stream ID is
// not the awaited one, so it is consumed and dropped.
func TestDuplicatedReplyFramesAreDiscarded(t *testing.T) {
	stages, handles := servedFleet(t, 2, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: l, Flaky: Flakiness{DupEvery: 1}}
	})
	for i, h := range handles {
		for k := 0; k < 6; k++ {
			info, err := ping(h)
			if err != nil {
				t.Fatalf("ping m%d: %v", i, err)
			}
			if want := fmt.Sprintf("m%d", i); info.StageID != want {
				t.Fatalf("duplicated replies misrouted: got %q for %q", info.StageID, want)
			}
		}
	}
	if err := applyRule(handles[0], policy.Rule{ID: "dup", Rate: 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(stages[0].Rules()); got != 1 {
		t.Errorf("rules = %d, want 1", got)
	}
}

// muteConn swallows everything the server writes while armed: requests
// are served, their replies never leave.
type muteConn struct {
	net.Conn
	mute *atomic.Bool
}

func (c *muteConn) Write(p []byte) (int, error) {
	if c.mute.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

type muteListener struct {
	net.Listener
	mute *atomic.Bool
}

func (l *muteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &muteConn{Conn: c, mute: l.mute}, nil
}

// TestKilledConnectionFinishesEveryStartedExchange: eight exchanges are
// started on eight connections, whose replies never come; each
// connection is killed while its exchange's second half is being waited
// for. Every Finish returns the kill's error, whether the kill came
// before its read or released it; no deadline timer is left armed, no
// expiry unconsumed and no call failed or still attached for the next
// Start; every handle is free for its next exchange, and that
// exchange redials and merges the right snapshot whether the lost
// exchange had reached the stage (a full resync) or not (the next
// delta).
func TestKilledConnectionFinishesEveryStartedExchange(t *testing.T) {
	const n = 8
	var mute atomic.Bool
	stages, handles := servedFleet(t, n, func(l net.Listener) net.Listener {
		return &muteListener{Listener: l, mute: &mute}
	}, withCallTimeout(time.Hour), withDelays())
	dst := make([]stage.Stats, n)
	conns := make([]*frameConn, n)
	for i, h := range handles { // the first (full) collect
		if _, _, err := h.Exec(nil, &dst[i]); err != nil {
			t.Fatal(err)
		}
		conns[i] = h.t.fc
	}

	mute.Store(true)
	for i, h := range handles {
		h.Start(nil, &dst[i])
	}
	errKilled := errors.New("rpcio test: connection killed under the gatherers")
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = h.Finish()
		}()
	}
	for _, fc := range conns {
		fc.kill(errKilled)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errKilled) {
			t.Errorf("exchange %d finished with %v, want the kill's error", i, err)
		}
	}
	for i, fc := range conns {
		if fc.deadline.Stop() || len(fc.fired) != 0 {
			t.Errorf("killed connection %d left its deadline timer armed or its expiry unconsumed", i)
		}
	}
	for i, h := range handles {
		call := &h.t.call
		if call.err != nil || call.fc != nil || call.reply != nil {
			t.Errorf("transport %d left its call not at rest: err %v, conn %v", i, call.err, call.fc)
		}
	}

	mute.Store(false)
	for i, h := range handles {
		if err := h.CollectDeltaInto(&dst[i]); err != nil {
			t.Fatalf("handle %d after the kill: %v", i, err)
		}
		if !sameStats(dst[i], stages[i].Collect()) {
			t.Errorf("handle %d: merged snapshot diverged after the kill", i)
		}
	}
}
