package clock

import (
	"runtime"
	"testing"
	"time"
)

// fired reports whether an expiry is sitting in the timer's channel,
// consuming it.
func fired(tm Timer) bool {
	select {
	case <-tm.C():
		return true
	default:
		return false
	}
}

func TestSimTimerFiresAtDeadlineAndIsReusable(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer()
	if c.PendingWaiters() != 0 || fired(tm) {
		t.Fatal("a new timer must be stopped")
	}
	for round := 0; round < 3; round++ {
		start := c.Now()
		tm.Reset(3 * time.Second)
		if c.PendingWaiters() != 1 {
			t.Fatalf("round %d: armed timer not parked", round)
		}
		c.Advance(2 * time.Second)
		if fired(tm) {
			t.Fatalf("round %d: fired a second early", round)
		}
		c.Advance(5 * time.Second)
		select {
		case got := <-tm.C():
			if want := start.Add(3 * time.Second); !got.Equal(want) {
				t.Fatalf("round %d: fired with t=%v, want the deadline %v", round, got, want)
			}
		default:
			t.Fatalf("round %d: did not fire", round)
		}
		if c.PendingWaiters() != 0 {
			t.Fatalf("round %d: fired timer still parked", round)
		}
	}
}

func TestSimTimerStopWithdrawsTheWaiter(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer()
	other := c.After(2 * time.Second)
	tm.Reset(time.Second)
	if d, _ := c.NextDeadline(); !d.Equal(epoch.Add(time.Second)) {
		t.Fatalf("NextDeadline = %v, want the timer's", d)
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported the timer pending")
	}
	if n := c.PendingWaiters(); n != 1 {
		t.Fatalf("%d waiters parked after Stop, want only the After", n)
	}
	c.Advance(time.Minute)
	if fired(tm) {
		t.Fatal("a stopped timer fired")
	}
	select {
	case <-other:
	default:
		t.Fatal("withdrawing the timer disturbed another waiter")
	}
}

func TestSimTimerStopAndResetDiscardAnUnreceivedExpiry(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer()
	tm.Reset(time.Second)
	c.Advance(time.Second) // fired, not received
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported it pending")
	}
	if fired(tm) {
		t.Fatal("Stop left the expiry in the channel")
	}
	tm.Reset(time.Second)
	c.Advance(time.Second) // fired again, not received
	tm.Reset(time.Hour)
	if fired(tm) {
		t.Fatal("Reset left the previous expiry in the channel")
	}
	if d, _ := c.NextDeadline(); !d.Equal(c.Now().Add(time.Hour)) {
		t.Fatalf("NextDeadline = %v, want the re-armed deadline", d)
	}
}

func TestSimTimersAndAftersShareDeadlineOrder(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer()
	a1 := c.After(time.Second)
	tm.Reset(time.Second) // same deadline, parked later: fires after a1
	a3 := c.After(3 * time.Second)
	c.Advance(time.Second)
	select {
	case <-a1:
	default:
		t.Fatal("After did not fire")
	}
	if !fired(tm) {
		t.Fatal("timer with an equal deadline did not fire")
	}
	select {
	case <-a3:
		t.Fatal("3s After fired after 1s")
	default:
	}
}

func TestSimTimerResetNonPositiveFiresImmediately(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewTimer()
	tm.Reset(0)
	if !fired(tm) {
		t.Fatal("Reset(0) did not fire")
	}
	if c.PendingWaiters() != 0 {
		t.Fatal("Reset(0) parked a waiter")
	}
}

func TestSimBlockUntilWaitsForParkedWaiters(t *testing.T) {
	c := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Second)
		c.Sleep(time.Second)
		close(done)
	}()
	for i := 0; i < 2; i++ {
		c.BlockUntil(1)
		c.Advance(time.Second)
	}
	<-done
	c.BlockUntil(0) // never blocks
}

func TestRealTimerFiresStopsAndIsReusable(t *testing.T) {
	tm := NewReal().NewTimer()
	if fired(tm) {
		t.Fatal("a new timer must be stopped")
	}
	tm.Reset(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	for round := 0; round < 3; round++ {
		tm.Reset(time.Millisecond)
		<-tm.C()
	}
	// Fired and not received: Stop and Reset must both leave C empty.
	expire := func() {
		tm.Reset(time.Nanosecond)
		for len(tm.C()) == 0 {
			runtime.Gosched()
		}
	}
	expire()
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported it pending")
	}
	if fired(tm) {
		t.Fatal("Stop left the expiry in the channel")
	}
	expire()
	tm.Reset(time.Hour)
	if fired(tm) {
		t.Fatal("Reset delivered a stale expiry")
	}
	tm.Stop()
}

// TestFuncTimerRunsItsFunctionAtTheDeadline: on either clock a function
// timer runs its function once per expiry, and only then; Stop reports
// a pending timer true and a fired one false. On the simulated clock an
// armed function timer is a waiter like any other: it counts in
// PendingWaiters and NextDeadline and fires in deadline order.
func TestFuncTimerRunsItsFunctionAtTheDeadline(t *testing.T) {
	ran := make(chan time.Duration, 1)
	c := NewSim(epoch)
	ft := c.NewFuncTimer(func() { ran <- c.Now().Sub(epoch) })
	if c.PendingWaiters() != 0 {
		t.Fatal("a new function timer must be stopped")
	}
	after := c.After(2 * time.Second)
	ft.Reset(time.Second)
	if d, _ := c.NextDeadline(); !d.Equal(epoch.Add(time.Second)) || c.PendingWaiters() != 2 {
		t.Fatalf("NextDeadline %v with %d waiters, want the timer's first of two", d, c.PendingWaiters())
	}
	if !ft.Stop() || ft.Stop() || c.PendingWaiters() != 1 {
		t.Fatal("Stop did not withdraw exactly the pending timer")
	}
	ft.Reset(time.Second)
	c.Advance(time.Second - time.Nanosecond)
	if len(ran) != 0 {
		t.Fatal("the function ran before the deadline")
	}
	c.Advance(time.Nanosecond)
	if got := <-ran; got < time.Second {
		t.Fatalf("the function ran at +%v, before its deadline", got)
	}
	if ft.Stop() || c.PendingWaiters() != 1 {
		t.Fatal("a fired function timer reported pending or stayed parked")
	}
	c.Advance(time.Second)
	<-after

	real := NewReal().NewFuncTimer(func() { ran <- 0 })
	real.Reset(time.Hour)
	if !real.Stop() {
		t.Fatal("Stop on a pending real function timer reported false")
	}
	for round := 0; round < 3; round++ {
		real.Reset(time.Millisecond)
		<-ran
		if real.Stop() {
			t.Fatal("Stop on a fired real function timer reported it pending")
		}
	}
}
