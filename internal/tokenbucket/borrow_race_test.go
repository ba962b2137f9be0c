package tokenbucket

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
)

// TestBorrowRaceConservation hammers the borrow fast path from many
// goroutines — concurrent TryTake (borrowing), Grant, Settle, retunes,
// and membership churn — under the race detector, then checks the
// conservation invariant: the pool's lifetime granted tokens never
// exceed the burst capital plus the refill that wall time could have
// accrued. Borrowing moves tokens; it must never mint them. Two of the
// buckets are blocking ones: eight waiters each sleep on reservations
// while their bucket's takers borrow into its debt, settlements deposit
// into it and retunes re-time it.
func TestBorrowRaceConservation(t *testing.T) {
	clk := clock.NewReal()
	const (
		k       = 6
		fluid   = 4 // buckets [0, fluid) also admit by Grant, the rest by Wait
		waiters = 8 // per blocking bucket
		rate    = 50_000.0
		burst   = 1_000.0
	)
	pool := NewBorrowPool(1.0)
	buckets := make([]*Bucket, k)
	for i := range buckets {
		buckets[i] = New(clk, rate, burst)
		pool.Attach(buckets[i])
	}
	start := clk.Now()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Waiters: Grant and Wait do not share a bucket (fluid admission
	// pre-consumes the window a reservation sleeps through).
	var waited atomic.Int64
	for i := fluid; i < k; i++ {
		for g := 0; g < waiters; g++ {
			wg.Add(1)
			go func(b *Bucket) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := b.Wait(2); err != nil {
						t.Errorf("Wait: %v", err)
						return
					}
					waited.Add(1)
				}
			}(buckets[i])
		}
	}
	// Admitters: a borrowing taker on every bucket and a fluid one beside
	// it, so siblings constantly race each other into the pool lock.
	for i := 0; i < k; i++ {
		for g := 0; g < 2 && (g == 0 || i < fluid); g++ {
			wg.Add(1)
			go func(b *Bucket, fluid bool) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if fluid {
						b.Grant(3, time.Microsecond)
					} else {
						b.TryTake(2)
					}
				}
			}(buckets[i], g == 1)
		}
	}
	// Settler: plan pushes land mid-borrow.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pool.Settle()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Retuner + churner: rates change and a member detaches/rejoins
	// while its siblings borrow.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			buckets[i%k].Set(rate, burst)
			pool.Detach(buckets[(i+1)%k])
			pool.Attach(buckets[(i+1)%k])
			time.Sleep(300 * time.Microsecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	elapsed := clk.Now().Sub(start).Seconds()
	var granted float64
	for _, b := range buckets {
		granted += b.Granted()
	}
	// Upper bound: every bucket's full burst plus refill over the whole
	// run. Grant pre-consumes its (microsecond) admission window; the
	// one-second slack absorbs those look-aheads many times over.
	bound := k * (burst + rate*(elapsed+1.0))
	if granted > bound {
		t.Errorf("granted %.0f tokens > conservation bound %.0f — borrowing minted tokens", granted, bound)
	}
	if granted == 0 || waited.Load() == 0 {
		t.Errorf("%.0f tokens granted, %d waits admitted; the stress loop did not run", granted, waited.Load())
	}
}
