package tokenbucket

import (
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
)

// TestUnlimitedFastPathRespectsClose ensures the lock-free unlimited
// admission path still honours Close.
func TestUnlimitedFastPathRespectsClose(t *testing.T) {
	bk := NewUnlimited(clock.NewSim(time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)))
	if !bk.TryTake(1) {
		t.Fatal("TryTake on open unlimited bucket failed")
	}
	if err := bk.Wait(1); err != nil {
		t.Fatalf("Wait on open unlimited bucket: %v", err)
	}
	bk.Close()
	if bk.TryTake(1) {
		t.Error("TryTake succeeded on closed bucket")
	}
	if err := bk.Wait(1); err != ErrClosed {
		t.Errorf("Wait on closed bucket = %v, want ErrClosed", err)
	}
	if got := bk.Granted(); got != 2 {
		t.Errorf("Granted = %v, want 2", got)
	}
}

// TestUnlimitedFastPathRetuneToFinite checks the atomic rate mirror
// tracks retunes in both directions: a bucket retuned to a finite rate
// must enforce again, and back to Infinite must stop enforcing.
func TestUnlimitedFastPathRetuneToFinite(t *testing.T) {
	clk := clock.NewSim(time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC))
	bk := NewUnlimited(clk)
	for i := 0; i < 10; i++ {
		if !bk.TryTake(1) {
			t.Fatal("unlimited TryTake failed")
		}
	}
	bk.Set(5, 2) // finite: 2-token burst
	if !bk.TryTake(2) {
		t.Fatal("TryTake within burst failed")
	}
	if bk.TryTake(1) {
		t.Error("TryTake beyond burst succeeded: finite retune not enforced")
	}
	bk.Set(Infinite, 2)
	if !bk.TryTake(1000) {
		t.Error("TryTake after retune back to Infinite failed")
	}
}

// TestGrantedConservedUnderConcurrency checks the atomic-float grant
// accounting loses nothing when the lock-free and locked paths race:
// first takers on an unlimited bucket, then 16 waiters, every one of
// them parked, on a bucket that concurrent retunes then move between
// two finite rates and unlimited, so a request may be admitted
// lock-free, with its token in hand, or after a sleep that a broadcast
// re-timed — and is counted once either way.
func TestGrantedConservedUnderConcurrency(t *testing.T) {
	bk := NewUnlimited(clock.NewReal())
	const (
		workers = 8
		perG    = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if !bk.TryTake(1) {
					t.Error("TryTake failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := bk.Granted(); got != workers*perG {
		t.Fatalf("Granted = %v, want %d", got, workers*perG)
	}

	const (
		waiters = 16
		perW    = 100
	)
	// A bucket that refills nothing for as long as the test runs: past its
	// burst, every waiter parks and stays parked until a retune wakes it,
	// so once 16 sleeps are armed each waiter is asleep, and the retuner's
	// first Infinite finds all of them there.
	bk = New(clock.NewReal(), 0, 4)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := bk.Wait(1); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}()
	}
	awaitSleeps(bk, waiters)
	stop := retuning(func(i int) {
		// Unlimited for an instant only: long enough to wake the sleepers
		// into the lock-free path, not to drain the test.
		bk.Set(Infinite, 4)
		bk.Set([...]float64{50_000, 100_000}[i%2], 4)
		time.Sleep(100 * time.Microsecond)
	})
	wg.Wait()
	stop()
	if got := bk.Granted(); got != waiters*perW {
		t.Fatalf("Granted = %v after %d waits of one token, want %d", got, waiters*perW, waiters*perW)
	}
}
