package rpcio

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/stage"
)

// deadlineFixture serves a stage behind wrap(listener) and returns a
// dial: each call opens a transport of its own to it, with its
// deadlines on clk.
func deadlineFixture(t *testing.T, clk clock.Clock, timeout time.Duration, wrap func(net.Listener) net.Listener) func() *frameTransport {
	t.Helper()
	stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ServeStage(wrap(l), stg))
	addr := l.Addr().String()
	return func() *frameTransport {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		tr := newFrameTransport(addr, dialConfig{clk: clk, timeout: timeout}, conn, newFrameReader())
		t.Cleanup(func() { _ = tr.Close() })
		return tr
	}
}

// collectFrame assembles a Stage.Batch collect in call's write buffer,
// as Start does.
func collectFrame(t *testing.T, call *frameCall) {
	t.Helper()
	frame, err := appendCallArgs(frameStart(call.wbuf), methodBatch, &BatchArgs{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	call.wbuf = frame
}

// roundTrip is one Stage.Batch exchange of the frame call assembled in
// call's write buffer: send, then await.
func roundTrip(tr *frameTransport, fc *frameConn, call *frameCall) error {
	call.m = methodBatch
	if err := tr.send(fc, call); err != nil {
		return err
	}
	return tr.await(call)
}

// armCounter is a clock whose function timers count what is done to
// them: how many were made and how many times one was armed.
type armCounter struct {
	clock.Clock
	made, arms atomic.Int32
}

type countedTimer struct {
	clock.FuncTimer
	arms *atomic.Int32
}

func (c *armCounter) NewFuncTimer(f func()) clock.FuncTimer {
	c.made.Add(1)
	return countedTimer{FuncTimer: c.Clock.NewFuncTimer(f), arms: &c.arms}
}

func (t countedTimer) Reset(d time.Duration) {
	t.arms.Add(1)
	t.FuncTimer.Reset(d)
}

// writeSignalListener serves connections that signal each write of
// theirs once it has returned: the frame is then in the peer's socket.
type writeSignalListener struct {
	net.Listener
	written chan struct{}
}

type writeSignalConn struct {
	net.Conn
	written chan struct{}
}

func (l *writeSignalListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeSignalConn{Conn: c, written: l.written}, nil
}

func (c *writeSignalConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written <- struct{}{}
	return n, err
}

// TestCallDeadlineOnSimClock drives a transport's one call through answered
// and unanswered exchanges on a simulated clock: the deadline counts
// from the send, its timer is armed only while a wait is actually
// blocked — never for a reply that is already in the socket — for what
// is left of the deadline, expires exactly when the clock reaches it,
// kills the connection — the next exchange goes over a fresh transport —
// and each connection makes its timer once and re-arms it for every
// exchange.
func TestCallDeadlineOnSimClock(t *testing.T) {
	const timeout = 150 * time.Millisecond
	clk := clock.NewSim(epoch)
	counted := &armCounter{Clock: clk}
	// Every second reply the server writes on a connection is swallowed;
	// every one it does write is signalled.
	written := make(chan struct{}, 16)
	dial := deadlineFixture(t, counted, timeout, func(l net.Listener) net.Listener {
		return &FlakyListener{Listener: &writeSignalListener{Listener: l, written: written}, Flaky: Flakiness{DropEvery: 2}}
	})
	tr := dial()
	exchange := func() (*frameConn, chan error) {
		tr, fc := tr, tr.fc
		collectFrame(t, &tr.call)
		done := make(chan error, 1)
		go func() { done <- roundTrip(tr, fc, &tr.call) }()
		return fc, done
	}
	answered := func(step string) {
		t.Helper()
		fc, done := exchange()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		<-written
		if tr.call.kind != frameReply || fc.cause() != nil {
			t.Fatalf("%s: kind %d, connection killed by %v", step, tr.call.kind, fc.cause())
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
		if fc.cause() == nil {
			t.Fatalf("%s: a timed-out call left its connection alive", step)
		}
		if n := clk.PendingWaiters(); n != 0 {
			t.Fatalf("%s: %d waiters left on the clock", step, n)
		}
		tr = dial()
	}

	// A reply that is in the socket before the second half asks for it
	// costs no timer at all.
	fc, call := tr.fc, &tr.call
	collectFrame(t, call)
	call.m = methodBatch
	if err := tr.send(fc, call); err != nil {
		t.Fatal(err)
	}
	<-written // the server's write returned: the reply is in the socket
	if err := tr.await(call); err != nil {
		t.Fatal(err)
	}
	if n := counted.arms.Load(); n != 0 || clk.PendingWaiters() != 0 {
		t.Fatalf("a reply already in the socket armed the deadline timer %d times", n)
	}

	// The deadline runs from the send: a second half that starts late
	// waits only for the remainder.
	fc, done := exchangeSentAgo(t, tr, call, clk, timeout/3)
	clk.BlockUntil(1)
	if d, _ := clk.NextDeadline(); !d.Equal(clk.Now().Add(timeout - timeout/3)) {
		t.Fatalf("late gather parked its deadline at %v, want send+%v", d, timeout)
	}
	clk.Advance(timeout - timeout/3)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "deadline") || fc.cause() == nil {
		t.Fatalf("late gather: err = %v, connection killed by %v", err, fc.cause())
	}

	tr = dial()
	answered("first exchange")
	timedOut("second exchange (reply dropped)")
	answered("first exchange after the timeout") // fresh connection, fresh timer
	timedOut("second timeout")
	answered("last exchange")
	if made := counted.made.Load(); made != 4 {
		t.Errorf("four connections made %d deadline timers, want one each", made)
	}
}

// exchangeSentAgo sends a Stage.Batch whose reply the fixture's wire
// will swallow (the second reply on a fresh connection), lets ago pass
// on the clock, and only then starts waiting for it.
func exchangeSentAgo(t *testing.T, tr *frameTransport, call *frameCall, clk *clock.Sim, ago time.Duration) (*frameConn, chan error) {
	t.Helper()
	fc := tr.fc
	collectFrame(t, call)
	call.m = methodBatch
	if err := tr.send(fc, call); err != nil {
		t.Fatal(err)
	}
	clk.Advance(ago)
	done := make(chan error, 1)
	go func() { done <- tr.await(call) }()
	return fc, done
}

// lateClock makes deadline timers that expire the moment they are
// armed, but only once the reply is in the socket: Reset lets the
// server's one write go, waits until it has returned, then runs the
// timer's function — so the read that follows finds its deadline
// already past, and only the look after the expiry can find the reply.
type lateClock struct {
	clock.Clock
	release, written chan struct{}
	fired            atomic.Int32
}

type lateTimer struct {
	c *lateClock
	f func()
}

func (c *lateClock) NewFuncTimer(f func()) clock.FuncTimer { return &lateTimer{c: c, f: f} }

func (l *lateTimer) Reset(time.Duration) {
	l.c.release <- struct{}{}
	<-l.c.written
	l.c.fired.Add(1)
	l.f()
}

func (l *lateTimer) Stop() bool { return false }

// heldListener serves connections whose every write waits to be
// released, and signals once it has returned.
type heldListener struct {
	net.Listener
	release, written chan struct{}
}

type heldConn struct {
	net.Conn
	release, written chan struct{}
}

func (l *heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &heldConn{Conn: c, release: l.release, written: l.written}, nil
}

func (c *heldConn) Write(p []byte) (int, error) {
	<-c.release
	n, err := c.Conn.Write(p)
	c.written <- struct{}{}
	return n, err
}

// TestReplyThatRacesTheDeadlineWins: when the deadline expires with the
// reply already in the socket — the blocked read released, the reply
// not yet read — the caller gets the reply: after the expiry, Finish
// clears the read deadline and looks once more, and what it finds wins.
// The connection stays: the reply came within the deadline.
func TestReplyThatRacesTheDeadlineWins(t *testing.T) {
	release, written := make(chan struct{}), make(chan struct{})
	clk := &lateClock{Clock: clock.NewReal(), release: release, written: written}
	tr := deadlineFixture(t, clk, time.Hour, func(l net.Listener) net.Listener {
		return &heldListener{Listener: l, release: release, written: written}
	})()
	fc, call := tr.fc, &tr.call
	const exchanges = 8
	for i := 0; i < exchanges; i++ {
		collectFrame(t, call)
		if err := roundTrip(tr, fc, call); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		var reply BatchReply
		if err := readCallReply(methodBatch, call.buf, &reply); err != nil || reply.Delta.Info.StageID != "s1" {
			t.Fatalf("exchange %d: reply %+v, err %v", i, reply, err)
		}
		if fc.cause() != nil {
			t.Fatalf("exchange %d: a reply that won its deadline killed its connection", i)
		}
	}
	if n := clk.fired.Load(); n != exchanges {
		t.Errorf("the deadline expired under %d of %d exchanges; the test no longer exercises it", n, exchanges)
	}
}

// firstMutedListener swallows every reply written on the first
// connection it accepts, and on no other.
type firstMutedListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *firstMutedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.accepted.Add(1) > 1 {
		return c, err
	}
	mute := &atomic.Bool{}
	mute.Store(true)
	return &muteConn{Conn: c, mute: mute}, nil
}

// TestDeadlineOnOneHandleSparesAnother: two handles to one stage, the
// first on a connection whose replies never come. The first handle's
// deadline expires on its simulated clock while the second handle's
// exchange is in flight; that exchange must still return its reply,
// because each handle owns its connection and a deadline kills only
// the connection of the call that missed it. Either the second
// handle's deadline runs on a clock nobody advances, so its exchange
// can only end by its reply or by someone else's kill; or it runs on
// the first handle's clock, and the second half starts only after the
// first handle's deadline fired — its own has passed too, yet the
// reply already in its socket is returned, and no timer is armed for
// it.
func TestDeadlineOnOneHandleSparesAnother(t *testing.T) {
	const timeout = 150 * time.Millisecond
	for _, sameClock := range []bool{false, true} {
		name := "spared clock nobody advances"
		if sameClock {
			name = "late gather on the same clock"
		}
		t.Run(name, func(t *testing.T) {
			stg := stage.New(stage.Info{StageID: "s1", JobID: "j1"}, clock.NewSim(epoch))
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			written := make(chan struct{}, 1)
			t.Cleanup(ServeStage(&firstMutedListener{Listener: &writeSignalListener{Listener: l, written: written}}, stg))
			clk := clock.NewSim(epoch)
			muted, err := DialStage(l.Addr().String(), WithHandleClock(clk), withCallTimeout(timeout))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = muted.Close() }()
			counted := &armCounter{Clock: clock.NewSim(epoch)}
			opts := []DialOption{WithHandleClock(counted)}
			if sameClock {
				counted.Clock = clk
				opts = append(opts, withCallTimeout(timeout))
			}
			spared, err := DialStage(l.Addr().String(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = spared.Close() }()

			var mutedStats, sparedStats stage.Stats
			spared.Start(nil, &sparedStats)
			muted.Start(nil, &mutedStats)
			done := make(chan error, 1)
			go func() {
				_, _, err := muted.Finish()
				done <- err
			}()
			clk.BlockUntil(1) // the muted handle waits on its deadline
			clk.Advance(timeout)
			if err := <-done; err == nil || !strings.Contains(err.Error(), "deadline") {
				t.Fatalf("muted handle: err = %v, want its deadline", err)
			}
			<-written // the spared handle's reply is in its socket
			if _, _, err := spared.Finish(); err != nil {
				t.Fatalf("a deadline crossed handles: the spared handle's exchange failed with %v", err)
			}
			if sparedStats.Info.StageID != "s1" {
				t.Errorf("spared handle collected %+v, want stage s1", sparedStats.Info)
			}
			if n := counted.arms.Load(); sameClock && n != 0 {
				t.Errorf("the late gather armed its deadline timer %d times for a reply already there", n)
			}
		})
	}
}
