package rpcio

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/stage"
)

// deadlineFixture serves a stage behind wrap(listener) and returns a
// transport on clk whose calls neither retry nor share a connection
// pool with other tests.
func deadlineFixture(t *testing.T, clk clock.Clock, timeout time.Duration, wrap func(net.Listener) net.Listener) *frameTransport {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ServeStage(wrap(l), stg))
	cfg := defaultDialConfig()
	cfg.clk, cfg.timeout, cfg.backoff, cfg.dialer = clk, timeout, Backoff{Attempts: 1}, &frameDialer{}
	tr := newFrameTransport(l.Addr().String(), cfg)
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// collectFrame assembles a Stage.Batch collect in call's write buffer,
// as Start does.
func collectFrame(t *testing.T, call *frameCall) {
	t.Helper()
	frame, err := appendCallArgs(frameStart(call.wbuf), methodBatch, &BatchArgs{Collect: true, ClientID: 9})
	if err != nil {
		t.Fatal(err)
	}
	call.wbuf = frame
}

// TestCallDeadlineOnSimClock drives a transport's one call through answered
// and unanswered exchanges on a simulated clock: the deadline counts
// from the send, its timer is armed only while a wait is actually
// blocked — never for a reply that is already there — for what is left
// of the deadline, expires exactly when the clock reaches it, kills the
// connection, and the same timer serves the next exchange on the next
// connection.
func TestCallDeadlineOnSimClock(t *testing.T) {
	const timeout = 150 * time.Millisecond
	clk := clock.NewSim(epoch)
	// Every second reply the server writes on a connection is swallowed.
	tr := deadlineFixture(t, clk, timeout, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: l, Flaky: Flakiness{DropEvery: 2}}
	})
	call := &tr.call
	exchange := func() (*frameConn, chan error) {
		fc, err := tr.ensureConn()
		if err != nil {
			t.Fatal(err)
		}
		collectFrame(t, call)
		done := make(chan error, 1)
		go func() { done <- tr.roundTrip(fc, call, methodBatch, 0) }()
		return fc, done
	}
	answered := func(step string) {
		t.Helper()
		fc, done := exchange()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if call.kind != frameReply || fc.isDead() {
			t.Fatalf("%s: kind %d, connection dead %v", step, call.kind, fc.isDead())
		}
		if n := clk.PendingWaiters(); n != 0 {
			t.Fatalf("%s: %d waiters left on the clock by a finished call", step, n)
		}
	}
	timedOut := func(step string) {
		t.Helper()
		fc, done := exchange()
		clk.BlockUntil(1) // parked on the deadline: the reply is not coming
		if d, _ := clk.NextDeadline(); !d.Equal(clk.Now().Add(timeout)) {
			t.Fatalf("%s: deadline parked at %v, want now+%v", step, d, timeout)
		}
		clk.Advance(timeout - time.Nanosecond)
		select {
		case err := <-done:
			t.Fatalf("%s: call returned %v before its deadline", step, err)
		default:
		}
		clk.Advance(time.Nanosecond)
		err := <-done
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("%s: err = %v, want the deadline error", step, err)
		}
		if !fc.isDead() {
			t.Fatalf("%s: a timed-out call left its connection alive", step)
		}
		if n := clk.PendingWaiters(); n != 0 {
			t.Fatalf("%s: %d waiters left on the clock", step, n)
		}
	}

	// A reply that has arrived before the second half asks for it costs
	// no timer at all.
	fc, err := tr.ensureConn()
	if err != nil {
		t.Fatal(err)
	}
	collectFrame(t, call)
	if err := tr.send(fc, call, methodBatch, 0); err != nil {
		t.Fatal(err)
	}
	for len(call.ch) == 0 {
		runtime.Gosched()
	}
	if err := tr.await(fc, call, methodBatch); err != nil {
		t.Fatal(err)
	}
	if call.deadline != nil || clk.PendingWaiters() != 0 {
		t.Fatal("a buffered reply armed a deadline timer")
	}

	// The deadline runs from the send: a second half that starts late
	// waits only for the remainder.
	fc, done := exchangeSentAgo(t, tr, call, clk, timeout/3)
	clk.BlockUntil(1)
	if d, _ := clk.NextDeadline(); !d.Equal(clk.Now().Add(timeout - timeout/3)) {
		t.Fatalf("late gather parked its deadline at %v, want send+%v", d, timeout)
	}
	clk.Advance(timeout - timeout/3)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "deadline") || !fc.isDead() {
		t.Fatalf("late gather: err = %v, connection dead %v", err, fc.isDead())
	}
	timer := call.deadline
	if timer == nil {
		t.Fatal("the blocked wait made no deadline timer")
	}

	answered("first exchange")
	timedOut("second exchange (reply dropped)")
	answered("first exchange after the timeout") // fresh connection, same call
	timedOut("second timeout")
	answered("last exchange")
	if call.deadline != timer {
		t.Error("the call replaced its deadline timer instead of re-arming it")
	}
}

// exchangeSentAgo sends a Stage.Batch whose reply the fixture's wire
// will swallow (the second reply on a fresh connection), lets ago pass
// on the clock, and only then starts waiting for it.
func exchangeSentAgo(t *testing.T, tr *frameTransport, call *frameCall, clk *clock.Sim, ago time.Duration) (*frameConn, chan error) {
	t.Helper()
	fc, err := tr.ensureConn()
	if err != nil {
		t.Fatal(err)
	}
	collectFrame(t, call)
	if err := tr.send(fc, call, methodBatch, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(ago)
	done := make(chan error, 1)
	go func() { done <- tr.await(fc, call, methodBatch) }()
	return fc, done
}

// lateTimer is a deadline that expires the moment the reply has been
// delivered. The reply is held back until the wait has found nothing
// buffered and arms the timer: Reset lets the server's one write go,
// waits until the demux goroutine has signalled the call, then fires,
// so the wait's select finds both channels ready.
type lateTimer struct {
	c         chan time.Time
	release   chan struct{}
	delivered func() bool
}

func (l *lateTimer) C() <-chan time.Time { return l.c }
func (l *lateTimer) Stop() bool {
	select {
	case <-l.c:
	default:
	}
	return false
}
func (l *lateTimer) Reset(time.Duration) {
	l.release <- struct{}{}
	for !l.delivered() {
		runtime.Gosched()
	}
	l.c <- time.Time{}
}

// heldListener serves connections whose every write waits to be
// released.
type heldListener struct {
	net.Listener
	release chan struct{}
}

type heldConn struct {
	net.Conn
	release chan struct{}
}

func (l *heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &heldConn{Conn: c, release: l.release}, nil
}

func (c *heldConn) Write(p []byte) (int, error) {
	<-c.release
	return c.Conn.Write(p)
}

// TestReplyThatRacesTheDeadlineWins: when the reply and the deadline
// are both ready, whichever branch the select takes the caller gets the
// reply — the deadline branch finds the call already completed by the
// reader, not by the kill, and returns it (the connection is still
// discarded: its timeliness can no longer be trusted).
func TestReplyThatRacesTheDeadlineWins(t *testing.T) {
	release := make(chan struct{})
	tr := deadlineFixture(t, clock.NewReal(), time.Hour, func(l net.Listener) net.Listener {
		return &heldListener{Listener: l, release: release}
	})
	call := &tr.call
	call.deadline = &lateTimer{c: make(chan time.Time, 1), release: release, delivered: func() bool { return len(call.ch) == 1 }}
	// The select picks between two ready channels at random: 24 fair
	// coins all landing on the reply branch is a 6e-8 event.
	deadlineBranch := 0
	for i := 0; i < 24; i++ {
		fc, err := tr.ensureConn()
		if err != nil {
			t.Fatal(err)
		}
		collectFrame(t, call)
		if err := tr.roundTrip(fc, call, methodBatch, 0); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		var reply BatchReply
		if err := readCallReply(methodBatch, call.buf, &reply); err != nil || reply.Delta.Info.StageID != "s1" {
			t.Fatalf("exchange %d: reply %+v, err %v", i, reply, err)
		}
		if fc.isDead() {
			deadlineBranch++
		}
	}
	if deadlineBranch == 0 {
		t.Error("the deadline branch never ran; the test no longer exercises it")
	}
}
