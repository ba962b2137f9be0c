package tokenbucket

import (
	"sync"
	"sync/atomic"
	"testing"

	"padll/internal/clock"
)

// BenchmarkTryTakeUnlimited measures the lock-free passthrough admission
// path (rate == Infinite), the bucket configuration behind every
// unlimited stage queue.
func BenchmarkTryTakeUnlimited(b *testing.B) {
	bk := NewUnlimited(clock.NewReal())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !bk.TryTake(1) {
				b.Fatal("unlimited TryTake failed")
			}
		}
	})
}

// BenchmarkTryTakeLimited measures the finite-rate (mutex) admission
// path with a bucket large enough that takes always succeed.
func BenchmarkTryTakeLimited(b *testing.B) {
	bk := New(clock.NewReal(), 1e12, 1e12)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !bk.TryTake(1) {
				b.Fatal("TryTake failed")
			}
		}
	})
}

// BenchmarkWaitUnlimited measures the lock-free Wait fast path.
func BenchmarkWaitUnlimited(b *testing.B) {
	bk := NewUnlimited(clock.NewReal())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := bk.Wait(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWaitContended measures the blocking path under a pile-up: 64
// goroutines wait on one bucket of burst 1, so every admission reserves
// and sleeps. ns/op is pinned by the rate (50 µs a token); the figures
// that can move are allocs/op and wakeups/admit — armed sleeps per
// admitted request, 1 when every waiter sleeps once.
func BenchmarkWaitContended(b *testing.B) {
	const waiters = 64
	bk := New(clock.NewReal(), 20_000, 1)
	var issued atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(b.N) {
				if err := bk.Wait(1); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(sleepsOf(bk))/float64(b.N), "wakeups/admit")
}
