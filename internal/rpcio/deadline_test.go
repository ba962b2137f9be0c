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

// healthFrame assembles a Stage.Health request in call's write buffer,
// as callOnce does.
func healthFrame(t *testing.T, call *frameCall) {
	t.Helper()
	frame, err := appendCallArgs(frameStart(call.wbuf), methodHealth, &HealthProbe{Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	call.wbuf = frame
}

// TestCallDeadlineOnSimClock drives one pooled call through answered
// and unanswered exchanges on a simulated clock: the deadline is armed
// only while the exchange is in flight, expires exactly when the clock
// reaches it, kills the connection, and the same timer serves the next
// exchange on the next connection.
func TestCallDeadlineOnSimClock(t *testing.T) {
	const timeout = 150 * time.Millisecond
	clk := clock.NewSim(epoch)
	// Every second reply the server writes on a connection is swallowed.
	tr := deadlineFixture(t, clk, timeout, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: l, Flaky: Flakiness{DropEvery: 2}}
	})
	call := tr.getCall()
	exchange := func() (*frameConn, chan error) {
		fc, err := tr.ensureConn()
		if err != nil {
			t.Fatal(err)
		}
		healthFrame(t, call)
		done := make(chan error, 1)
		go func() { done <- tr.roundTrip(fc, call, methodHealth, 0) }()
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

	answered("first exchange")
	timer := call.deadline
	if timer == nil {
		t.Fatal("the call made no deadline timer")
	}
	timedOut("second exchange (reply dropped)")
	answered("first exchange after the timeout") // fresh connection, same call
	timedOut("second timeout")
	answered("last exchange")
	if call.deadline != timer {
		t.Error("the call replaced its deadline timer instead of re-arming it")
	}
}

// lateTimer is a deadline that expires the moment the reply has been
// delivered: Reset waits until the demux goroutine has signalled the
// call, then fires, so roundTrip's select finds both channels ready.
type lateTimer struct {
	c         chan time.Time
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
	for !l.delivered() {
		runtime.Gosched()
	}
	l.c <- time.Time{}
}

// TestReplyThatRacesTheDeadlineWins: when the reply and the deadline
// are both ready, whichever branch the select takes the caller gets the
// reply — the deadline branch finds the call already completed by the
// reader, not by the kill, and returns it (the connection is still
// discarded: its timeliness can no longer be trusted).
func TestReplyThatRacesTheDeadlineWins(t *testing.T) {
	tr := deadlineFixture(t, clock.NewReal(), time.Hour, func(l net.Listener) net.Listener { return l })
	call := tr.getCall()
	call.deadline = &lateTimer{c: make(chan time.Time, 1), delivered: func() bool { return len(call.ch) == 1 }}
	// The select picks between two ready channels at random: 24 fair
	// coins all landing on the reply branch is a 6e-8 event.
	deadlineBranch := 0
	for i := 0; i < 24; i++ {
		fc, err := tr.ensureConn()
		if err != nil {
			t.Fatal(err)
		}
		healthFrame(t, call)
		if err := tr.roundTrip(fc, call, methodHealth, 0); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		var st StageHealth
		if err := readCallReply(methodHealth, call.buf, &st); err != nil || st.Seq != 9 {
			t.Fatalf("exchange %d: reply %+v, err %v", i, st, err)
		}
		if fc.isDead() {
			deadlineBranch++
		}
	}
	if deadlineBranch == 0 {
		t.Error("the deadline branch never ran; the test no longer exercises it")
	}
}
