package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func TestRealNowMonotone(t *testing.T) {
	c := NewReal()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestRealSleep(t *testing.T) {
	c := NewReal()
	start := c.Now()
	c.Sleep(10 * time.Millisecond)
	if got := c.Now().Sub(start); got < 10*time.Millisecond {
		t.Fatalf("slept %v, want >= 10ms", got)
	}
}

func TestSimNowStartsAtStart(t *testing.T) {
	c := NewSim(epoch)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), epoch)
	}
}

func TestSimAdvance(t *testing.T) {
	c := NewSim(epoch)
	c.Advance(time.Minute)
	if want := epoch.Add(time.Minute); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestSimAdvanceToBackwardsIsNoop(t *testing.T) {
	c := NewSim(epoch)
	c.Advance(time.Hour)
	c.AdvanceTo(epoch)
	if want := epoch.Add(time.Hour); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v (backwards AdvanceTo must be ignored)", c.Now(), want)
	}
}

func TestSimSleepReleasesOnAdvance(t *testing.T) {
	c := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to park.
	waitFor(t, func() bool { return c.PendingWaiters() == 1 })
	select {
	case <-done:
		t.Fatal("Sleep returned before clock advanced")
	default:
	}
	c.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not return after sufficient Advance")
	}
}

func TestSimSleepZeroReturnsImmediately(t *testing.T) {
	c := NewSim(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestSimWaitersReleaseInDeadlineOrder(t *testing.T) {
	c := NewSim(epoch)
	// Register out of order; deadlines at 5s, 1s and 3s.
	ch5 := expiry(c, 5*time.Second)
	ch1 := expiry(c, 1*time.Second)
	ch3 := expiry(c, 3*time.Second)
	for i, ch := range []<-chan struct{}{ch1, ch3, ch5} {
		c.Advance(2 * time.Second)
		if n := c.PendingWaiters(); n != 2-i {
			t.Fatalf("after %ds %d waiters parked, want %d", 2*(i+1), n, 2-i)
		}
		receive(t, ch, "the earliest waiter")
	}
}

// TestSimEqualDeadlinesFIFO: sleepers with one deadline wake in the
// order they parked. Under Drive one waiter is released at a time, so
// the order they run in is the order the clock released them.
func TestSimEqualDeadlinesFIFO(t *testing.T) {
	c := NewSim(epoch)
	const n = 16
	var order []int
	c.Drive(func() {
		g := NewGroup(c)
		for i := 0; i < n; i++ {
			g.Go(func() {
				c.Sleep(time.Second)
				order = append(order, i)
			})
		}
		g.Wait()
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sleepers woke in order %v, want parking order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d sleepers woke", len(order), n)
	}
}

func TestSimNextDeadline(t *testing.T) {
	c := NewSim(epoch)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline on an idle clock")
	}
	expiry(c, 4*time.Second)
	expiry(c, 2*time.Second)
	d, ok := c.NextDeadline()
	if !ok || !d.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("NextDeadline = %v,%v; want %v,true", d, ok, epoch.Add(2*time.Second))
	}
}

func TestSimConcurrentSleepersStress(t *testing.T) {
	c := NewSim(epoch)
	const n = 64
	var released atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Sleep(time.Duration(i%10+1) * time.Second)
			released.Add(1)
		}(i)
	}
	waitFor(t, func() bool { return c.PendingWaiters() == n })
	for i := 0; i < 10; i++ {
		c.Advance(time.Second)
	}
	wg.Wait()
	if released.Load() != n {
		t.Fatalf("released %d of %d sleepers", released.Load(), n)
	}
	if c.PendingWaiters() != 0 {
		t.Fatalf("%d waiters still parked", c.PendingWaiters())
	}
}

// expiry arms a function timer on c for d and returns the channel its
// function sends on.
func expiry(c Clock, d time.Duration) <-chan struct{} {
	ch := make(chan struct{}, 1)
	c.NewFuncTimer(func() { ch <- struct{}{} }).Reset(d)
	return ch
}

// receive fails the test unless ch delivers within five seconds.
func receive(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never fired", what)
	}
}

// waitFor polls cond until it is true or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
