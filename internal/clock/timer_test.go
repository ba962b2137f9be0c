package clock

import (
	"strings"
	"testing"
	"time"
)

// TestFuncTimerRunsItsFunctionAtTheDeadline holds both clocks to the one
// timer contract, time.AfterFunc's: a new timer is stopped; Stop on a
// pending timer reports true and its function never runs; Stop after
// the function ran reports false; and Reset re-arms the timer, which
// runs its function once per expiry.
func TestFuncTimerRunsItsFunctionAtTheDeadline(t *testing.T) {
	// A real timer armed for pending is still pending at the Stop that
	// follows the Reset, and one armed for d soon runs its function.
	const pending, d = 100 * time.Millisecond, time.Millisecond
	for _, tc := range []struct {
		name string
		// on returns the clock and the way to let time pass on it.
		on func() (Clock, func(time.Duration))
	}{
		{"real", func() (Clock, func(time.Duration)) { return NewReal(), time.Sleep }},
		{"sim", func() (Clock, func(time.Duration)) { c := NewSim(epoch); return c, c.Advance }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pass := tc.on()
			ran := make(chan struct{}, 2) // room for a second run, which the test then reports
			tm := c.NewFuncTimer(func() { ran <- struct{}{} })
			if tm.Stop() {
				t.Fatal("a new timer reported pending")
			}
			tm.Reset(pending)
			if !tm.Stop() {
				t.Fatal("Stop on a pending timer reported false")
			}
			pass(pending + 20*time.Millisecond)
			if len(ran) != 0 {
				t.Fatal("a stopped timer ran its function")
			}
			for round := 0; round < 3; round++ {
				tm.Reset(d)
				pass(d)
				receive(t, ran, "the re-armed timer")
				if tm.Stop() {
					t.Fatalf("round %d: Stop after the function ran reported the timer pending", round)
				}
			}
			pass(20 * time.Millisecond)
			if len(ran) != 0 {
				t.Fatal("the function ran twice for one expiry")
			}
		})
	}
}

// TestSimTimerFiresAtDeadlineAndIsReusable: on the simulated clock an
// armed timer is a waiter like any other. It counts in PendingWaiters
// from Reset until it fires, fires not a nanosecond early, and its
// function sees the clock at the deadline.
func TestSimTimerFiresAtDeadlineAndIsReusable(t *testing.T) {
	c := NewSim(epoch)
	ran := make(chan time.Time, 1)
	tm := c.NewFuncTimer(func() { ran <- c.Now() })
	if c.PendingWaiters() != 0 {
		t.Fatal("a new timer must be stopped")
	}
	for round := 0; round < 3; round++ {
		want := c.Now().Add(3 * time.Second)
		tm.Reset(3 * time.Second)
		if c.PendingWaiters() != 1 {
			t.Fatalf("round %d: armed timer not parked", round)
		}
		c.Advance(3*time.Second - time.Nanosecond)
		if c.PendingWaiters() != 1 {
			t.Fatalf("round %d: fired a nanosecond early", round)
		}
		c.Advance(time.Nanosecond)
		if got := <-ran; !got.Equal(want) {
			t.Fatalf("round %d: fired at %v, want the deadline %v", round, got, want)
		}
		if c.PendingWaiters() != 0 {
			t.Fatalf("round %d: fired timer still parked", round)
		}
	}
}

// TestSimAfterObservesDeadlineTime: a timer's function sees the clock at
// its own deadline, not at a later instant the clock is bound for. Under
// Drive the clock stops at each deadline in turn, so a timer due at 3s
// fires at 3s although a sleeper is parked until 10s.
func TestSimAfterObservesDeadlineTime(t *testing.T) {
	c := NewSim(epoch)
	var got time.Time
	slept := make(chan struct{})
	c.Drive(func() {
		NewGroup(c).Go(func() {
			c.Sleep(10 * time.Second)
			close(slept)
		})
		fired := make(chan time.Time, 1)
		c.NewFuncTimer(func() { fired <- c.Now() }).Reset(3 * time.Second)
		got = <-fired
	})
	if want := epoch.Add(3 * time.Second); !got.Equal(want) {
		t.Fatalf("timer fired with the clock at %v, want the deadline %v", got, want)
	}
	c.Advance(time.Hour) // after Drive the clock is manual again
	receive(t, slept, "the 10s sleeper")
}

func TestSimTimerStopWithdrawsTheWaiter(t *testing.T) {
	c := NewSim(epoch)
	tm := c.NewFuncTimer(func() {})
	other := expiry(c, 2*time.Second)
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
	if d, _ := c.NextDeadline(); c.PendingWaiters() != 1 || !d.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("%d waiters parked after Stop, next at %v, want only the other", c.PendingWaiters(), d)
	}
	c.Advance(time.Minute)
	receive(t, other, "the other waiter")
}

// TestSimTimersAndSleepersShareDeadlineOrder: under Drive, a timer and
// a sleeper with one deadline are released in the order they parked,
// whichever kind parked first.
func TestSimTimersAndSleepersShareDeadlineOrder(t *testing.T) {
	c := NewSim(epoch)
	var order []string
	sleeper := func() {
		c.Sleep(time.Second)
		order = append(order, "sleeper")
	}
	timer := func() {
		tick := make(chan struct{}, 1)
		c.NewFuncTimer(func() { tick <- struct{}{} }).Reset(time.Second)
		<-tick
		order = append(order, "timer")
	}
	c.Drive(func() {
		for _, pair := range [][2]func(){{sleeper, timer}, {timer, sleeper}} {
			g := NewGroup(c)
			g.Go(pair[0])
			g.Go(pair[1])
			g.Wait()
		}
	})
	if got, want := strings.Join(order, " "), "sleeper timer timer sleeper"; got != want {
		t.Fatalf("released %q, want %q", got, want)
	}
}

func TestSimTimerResetNonPositiveFiresImmediately(t *testing.T) {
	c := NewSim(epoch)
	ran := make(chan struct{}, 1)
	c.NewFuncTimer(func() { ran <- struct{}{} }).Reset(0)
	if c.PendingWaiters() != 0 {
		t.Fatal("Reset(0) parked a waiter")
	}
	receive(t, ran, "Reset(0)")
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
