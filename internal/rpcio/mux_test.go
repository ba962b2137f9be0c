// Failure-mode tests for the multiplexed frame transport: many stages
// behind one listener, one shared TCP connection per endpoint, and the
// ways that connection can die or misbehave at frame granularity.
package rpcio

import (
	"bytes"
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

// muxFleet serves n stages behind one ServeMux listener (wrapped by
// wrap, if non-nil) and dials one handle per stage, all sharing one
// private dialer pool.
func muxFleet(t *testing.T, n int, wrap func(net.Listener) net.Listener, opts ...DialOption) ([]*stage.Stage, []*StageHandle, net.Listener) {
	t.Helper()
	clk := clock.NewSim(epoch)
	fs := NewFrameServer()
	stages := make([]*stage.Stage, n)
	for i := range stages {
		stages[i] = stage.New(stage.Info{StageID: fmt.Sprintf("m%d", i), JobID: "jm", Hostname: "h", PID: i + 1, User: "u"}, clk)
		fs.Add(NewStageService(stages[i]))
	}
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := base
	if wrap != nil {
		l = wrap(base)
	}
	stop := ServeMux(l, fs)
	t.Cleanup(stop)

	pool := &frameDialer{}
	handles := make([]*StageHandle, n)
	for i := range handles {
		all := append([]DialOption{
			WithMuxStage(fmt.Sprintf("m%d", i)),
			func(c *dialConfig) { c.dialer = pool },
		}, opts...)
		h, err := DialStage(base.Addr().String(), all...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		handles[i] = h
	}
	return stages, handles, l
}

// TestMuxManyStagesShareOneConnection: four handles to four stages on
// one endpoint must open exactly one TCP connection, and every call
// must land on the stage its handle attached to.
func TestMuxManyStagesShareOneConnection(t *testing.T) {
	var cl *countingListener
	stages, handles, _ := muxFleet(t, 4, func(l net.Listener) net.Listener {
		cl = &countingListener{Listener: l}
		return cl
	})
	for i, h := range handles {
		info, err := ping(h)
		if err != nil {
			t.Fatalf("ping m%d: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); info.StageID != want {
			t.Errorf("handle %d pinged stage %q, want %q — replies misrouted", i, info.StageID, want)
		}
	}
	// A mutation through one handle must touch only its stage.
	if err := applyRule(handles[2], policy.Rule{ID: "only-m2", Rate: 100}); err != nil {
		t.Fatal(err)
	}
	for i, s := range stages {
		want := 0
		if i == 2 {
			want = 1
		}
		if got := len(s.Rules()); got != want {
			t.Errorf("stage m%d has %d rules, want %d", i, got, want)
		}
	}
	if got := cl.accepted.Load(); got != 1 {
		t.Errorf("fleet of 4 handles opened %d TCP connections, want 1", got)
	}
}

// TestMuxInterleavedRepliesRouteCorrectly hammers one shared connection
// from many goroutines across all handles; every reply must reach the
// caller that issued it (and the race detector watches the demux path).
func TestMuxInterleavedRepliesRouteCorrectly(t *testing.T) {
	_, handles, _ := muxFleet(t, 4, nil)
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

// TestMuxAttachUnknownStageFailsFast: attaching to a stage the endpoint
// does not host is an application error — surfaced immediately, never
// retried against a healthy connection.
func TestMuxAttachUnknownStageFailsFast(t *testing.T) {
	_, _, l := muxFleet(t, 1, nil)
	h, err := DialStage(l.Addr().String(), WithMuxStage("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	start := time.Now()
	_, err = ping(h)
	if err == nil {
		t.Fatal("call to unattachable stage succeeded")
	}
	var remote RemoteError
	if !errors.As(err, &remote) {
		t.Errorf("attach failure = %v (%T), want RemoteError", err, err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("attach failure took %v; application errors must not burn the retry budget", elapsed)
	}
}

// TestMuxMidFrameDropRedialsAndResyncs arms a mid-frame connection kill
// on a Stage.Batch reply: the stage has applied the exchange (its delta
// generation advanced) but the controller's handle never saw the reply.
// The handle must kill the shared connection, redial, re-attach, and —
// because its acknowledgement is now stale — receive a full-snapshot
// resync that reconverges with the stage's true state.
func TestMuxMidFrameDropRedialsAndResyncs(t *testing.T) {
	arm := &atomic.Bool{}
	stages, handles, _ := muxFleet(t, 1, func(l net.Listener) net.Listener {
		return &killSwitchListener{Listener: l, arm: arm}
	}, WithBackoff(Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Attempts: 5}))
	stg, h := stages[0], handles[0]

	if _, err := collect(h); err != nil { // initial full snapshot
		t.Fatal(err)
	}
	stg.ApplyRule(policy.Rule{ID: "r1", Match: policy.Matcher{Ops: []posix.Op{posix.OpOpen}}, Rate: 100})
	if _, err := collect(h); err != nil { // incremental
		t.Fatal(err)
	}

	stg.SetRate("r1", 250)
	arm.Store(true) // next reply frame dies halfway across
	got, err := collect(h)
	if err != nil {
		t.Fatalf("collect across a mid-frame drop: %v", err)
	}
	if !bytes.Equal(statsBytes(got), statsBytes(stg.Collect())) {
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
	got, err = collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsBytes(got), statsBytes(stg.Collect())) {
		t.Errorf("post-recovery snapshot diverged:\n got: %+v\nwant: %+v", got, stg.Collect())
	}
}

// TestMuxSurvivesFlakyFrameBoundaries runs the mux through a wire that
// drops every Nth frame outright: per-call deadlines catch the holes,
// the shared connection redials, and every call still lands on (and
// returns from) the right stage.
func TestMuxSurvivesFlakyFrameBoundaries(t *testing.T) {
	stages, handles, _ := muxFleet(t, 2, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: l, Flaky: Flakiness{DropEvery: 5}}
	},
		WithCallTimeout(150*time.Millisecond),
		WithBackoff(Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Attempts: 6}))

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

// TestMuxDuplicatedReplyFramesAreDiscarded: a wire that duplicates
// every frame must not desynchronize the demux loop — duplicate stream
// IDs have no waiter and are consumed and dropped.
func TestMuxDuplicatedReplyFramesAreDiscarded(t *testing.T) {
	stages, handles, _ := muxFleet(t, 2, func(l net.Listener) net.Listener {
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
// started on one shared connection, whose replies never come; the
// connection is killed while their second halves are being waited for.
// Every Finish returns the kill's error, exactly one completion reaches
// each transport's call and is consumed by its Finish — so no call is
// left signalled, failed or still attached for the next Start — every
// handle is free for its next exchange, and that exchange redials
// and merges the right snapshot whether the lost exchange had reached
// the stage (a full resync) or not (the next delta).
func TestKilledConnectionFinishesEveryStartedExchange(t *testing.T) {
	const n = 8
	var mute atomic.Bool
	stages, handles, _ := muxFleet(t, n, func(l net.Listener) net.Listener {
		return &muteListener{Listener: l, mute: &mute}
	}, WithCallTimeout(time.Hour), WithBackoff(Backoff{Attempts: 1}))
	dst := make([]stage.Stats, n)
	for i, h := range handles { // attach, and the first (full) collect
		if _, _, err := h.Exec(nil, &dst[i], false); err != nil {
			t.Fatal(err)
		}
	}
	fc := handles[0].t.(*frameTransport).fc

	mute.Store(true)
	for i, h := range handles {
		h.Start(nil, &dst[i], true)
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
	fc.kill(errKilled)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errKilled) {
			t.Errorf("exchange %d finished with %v, want the kill's error", i, err)
		}
	}
	fc.mu.Lock()
	if len(fc.pending) != 0 {
		t.Errorf("%d calls still pending on the killed connection", len(fc.pending))
	}
	fc.mu.Unlock()
	for i, h := range handles {
		call := &h.t.(*frameTransport).call
		if len(call.ch) != 0 || call.err != nil || call.fc != nil || call.reply != nil {
			t.Errorf("transport %d left its call not at rest: %d signals, err %v, conn %v", i, len(call.ch), call.err, call.fc)
		}
	}

	mute.Store(false)
	for i, h := range handles {
		merged, err := collect(h)
		if err != nil {
			t.Fatalf("handle %d after the kill: %v", i, err)
		}
		if !bytes.Equal(statsBytes(merged), statsBytes(stages[i].Collect())) {
			t.Errorf("handle %d: merged snapshot diverged after the kill", i)
		}
	}
}
