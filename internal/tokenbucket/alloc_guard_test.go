package tokenbucket

import (
	"testing"
	"time"

	"padll/internal/clock"
)

// TestTryTakeZeroAllocs guards the zero-alloc contract of TryTake: both
// the lock-free unlimited branch and the locked finite-rate branch must
// admit without allocating.
func TestTryTakeZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))

	unlimited := NewUnlimited(clk)
	if !unlimited.TryTake(1) {
		t.Fatal("unlimited TryTake refused")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if !unlimited.TryTake(1) {
			t.Fatal("unlimited TryTake refused")
		}
	}); avg != 0 {
		t.Errorf("TryTake (unlimited fast path) allocates %.3f allocs/op, want 0", avg)
	}

	limited := New(clk, 1e12, 1e12)
	if !limited.TryTake(1) {
		t.Fatal("limited TryTake refused")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if !limited.TryTake(1) {
			t.Fatal("limited TryTake refused")
		}
	}); avg != 0 {
		t.Errorf("TryTake (finite-rate path) allocates %.3f allocs/op, want 0", avg)
	}
}

// TestTakeAtZeroAllocs guards the stage's shaped admit primitive the
// same way.
func TestTakeAtZeroAllocs(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	limited := New(clk, 1e12, 1e12)
	now := clk.Now()
	if avg := testing.AllocsPerRun(1000, func() {
		if !limited.TakeAt(1, now) {
			t.Fatal("TakeAt refused")
		}
	}); avg != 0 {
		t.Errorf("TakeAt allocates %.3f allocs/op, want 0", avg)
	}
}

// TestSetZeroAllocsWithNoWaiter: a retune with nobody parked in Wait has
// no one to wake and makes no fresh broadcast channel — the control
// plane retunes every round, waiters are the exception.
func TestSetZeroAllocsWithNoWaiter(t *testing.T) {
	b := New(clock.NewSim(time.Unix(0, 0)), 100, 10)
	rates := [...]float64{200, Infinite, 50}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		b.Set(rates[i%len(rates)], 10)
		i++
	}); avg != 0 {
		t.Errorf("Set (no waiter parked) allocates %.3f allocs/op, want 0", avg)
	}
}

// TestWaitParkedZeroAllocs: a request that finds the bucket dry
// reserves, sleeps on a pooled timer and is admitted without allocating
// once the pool holds a timer — the blocking path is no exception to the
// admit path's contract.
func TestWaitParkedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc guards are not meaningful under -race")
	}
	clk := clock.NewSim(time.Unix(0, 0))
	b := New(clk, 1000, 1)
	if !b.TryTake(1) {
		t.Fatal("drain failed")
	}
	next, done := make(chan struct{}), make(chan error)
	go func() {
		for range next {
			done <- b.Wait(1)
		}
	}()
	defer close(next)
	parkedWait := func() {
		next <- struct{}{}
		clk.BlockUntil(1)
		clk.Advance(time.Millisecond)
		if err := <-done; err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	parkedWait() // makes the bucket's first timer
	before := sleepsOf(b)
	const runs = 500
	if avg := testing.AllocsPerRun(runs, parkedWait); avg != 0 {
		t.Errorf("Wait (parked path) allocates %.3f allocs/op, want 0", avg)
	}
	if got := sleepsOf(b) - before; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d sleeps in %d waits: the guard did not measure the parked path", got, runs+1)
	}
}
