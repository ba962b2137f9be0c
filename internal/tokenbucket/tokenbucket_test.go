package tokenbucket

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"padll/internal/clock"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

func TestNewStartsFull(t *testing.T) {
	b := New(clock.NewSim(epoch), 100, 50)
	if got := b.Tokens(); got != 50 {
		t.Errorf("initial fill = %v, want 50", got)
	}
}

func TestNewClampsBadArgs(t *testing.T) {
	b := New(clock.NewSim(epoch), -5, -1)
	if b.Capacity() != 1 {
		t.Errorf("capacity = %v, want 1 after clamping", b.Capacity())
	}
	if b.Rate() <= 0 {
		t.Errorf("rate = %v, want > 0 after clamping", b.Rate())
	}
}

func TestTryTakeWithinBurst(t *testing.T) {
	b := New(clock.NewSim(epoch), 10, 5)
	for i := 0; i < 5; i++ {
		if !b.TryTake(1) {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	if b.TryTake(1) {
		t.Fatal("take beyond burst succeeded without refill")
	}
}

func TestTryTakeZeroAlwaysSucceeds(t *testing.T) {
	b := New(clock.NewSim(epoch), 1, 1)
	b.TryTake(1)
	if !b.TryTake(0) || !b.TryTake(-3) {
		t.Fatal("TryTake(<=0) must succeed")
	}
}

func TestRefillOverTime(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 5)
	if !b.TryTake(5) {
		t.Fatal("drain failed")
	}
	clk.Advance(300 * time.Millisecond) // refills 3 tokens
	if !b.TryTake(3) {
		t.Fatal("take after refill failed")
	}
	if b.TryTake(1) {
		t.Fatal("took more than refilled")
	}
}

func TestRefillCapsAtCapacity(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 1000, 10)
	clk.Advance(time.Hour)
	if got := b.Tokens(); got != 10 {
		t.Errorf("fill after long idle = %v, want capacity 10", got)
	}
}

func TestWaitImmediateWhenTokensAvailable(t *testing.T) {
	b := New(clock.NewSim(epoch), 10, 5)
	done := make(chan error, 1)
	go func() { done <- b.Wait(3) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait blocked although tokens were available")
	}
}

func TestWaitBlocksUntilRefill(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 5)
	if !b.TryTake(5) {
		t.Fatal("drain failed")
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(2) }()
	clk.BlockUntil(1)
	select {
	case <-done:
		t.Fatal("Wait returned before refill")
	default:
	}
	clk.Advance(200 * time.Millisecond) // exactly 2 tokens
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after refill")
	}
}

func TestWaitOversizedRequestChargesDebt(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 5)
	done := make(chan error, 1)
	go func() { done <- b.Wait(25) }() // 5x capacity
	clk.BlockUntil(1)
	clk.Advance(2 * time.Second) // deficit = 20 tokens = 2s at rate 10
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("oversized Wait never returned")
	}
	// Fill went negative; an immediate small take must fail.
	if b.TryTake(1) {
		t.Fatal("debt was not charged: TryTake succeeded right after oversized grant")
	}
}

func TestWaitUnlimited(t *testing.T) {
	b := NewUnlimited(clock.NewSim(epoch))
	done := make(chan error, 1)
	go func() { done <- b.Wait(1e12) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unlimited bucket blocked")
	}
}

func TestSetRateWakesWaiters(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 0.001, 1) // glacial rate
	if !b.TryTake(1) {
		t.Fatal("drain failed")
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(1) }()
	clk.BlockUntil(1)
	b.Set(1e9, 1) // effectively instant
	// The waiter recomputes and needs a tiny advance to refill.
	for i := 0; i < 100; i++ {
		clk.Advance(time.Millisecond)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("waiter never woke after rate increase")
}

func TestSetRateSettlesAccrualAtOldRate(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 100)
	b.TryTake(100)
	clk.Advance(time.Second) // accrues 10 at old rate
	b.Set(1000, 100)
	if got := b.Tokens(); math.Abs(got-10) > 1e-9 {
		t.Errorf("fill after retune = %v, want 10 (accrued at old rate)", got)
	}
}

func TestSetCapacityClampsFill(t *testing.T) {
	b := New(clock.NewSim(epoch), 10, 100)
	b.Set(10, 5)
	if got := b.Tokens(); got != 5 {
		t.Errorf("fill = %v, want clamped to 5", got)
	}
}

func TestSetAtomic(t *testing.T) {
	b := New(clock.NewSim(epoch), 10, 100)
	b.Set(20, 30)
	if b.Rate() != 20 || b.Capacity() != 30 {
		t.Errorf("Set: rate=%v cap=%v, want 20, 30", b.Rate(), b.Capacity())
	}
}

func TestSetToUnlimitedAndBack(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 1, 1)
	b.TryTake(1)
	b.Set(Infinite, 1)
	if !b.TryTake(1e9) {
		t.Fatal("unlimited bucket rejected a take")
	}
	b.Set(1, 1)
	if b.Tokens() > b.Capacity() {
		t.Errorf("fill %v exceeds capacity %v after leaving unlimited", b.Tokens(), b.Capacity())
	}
}

// TestCloseReleasesWaiters: Close releases every sleeper with ErrClosed,
// also one that a concurrent retune has just sent back to re-time its
// sleep, and each hands its reservation back — Granted counts admitted
// tokens only, and no timer stays armed.
func TestCloseReleasesWaiters(t *testing.T) {
	const waiters = 16
	clk := clock.NewSim(epoch)
	b := New(clk, 0.001, 1)
	b.TryTake(1)
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- b.Wait(1) }()
	}
	clk.BlockUntil(waiters)
	stop := retuning(func(i int) { b.Set(0.001*float64(1+i%3), 1) })
	defer stop()
	b.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != ErrClosed {
				t.Fatalf("Wait after Close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close released %d of %d waiters", i, waiters)
		}
	}
	if got := b.Granted(); got != 1 {
		t.Errorf("Granted = %v, want 1: the released sleepers were admitted nothing", got)
	}
	if got := b.Tokens(); got < 0 {
		t.Errorf("fill = %v after Close: a released sleeper kept its reservation", got)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d timers still armed after Close", n)
	}
	if b.TryTake(1) {
		t.Fatal("TryTake succeeded on a closed bucket")
	}
}

func TestGrantFluidAdmission(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 100, 100)
	// Window 1: full bucket (burst 100) + window refill 100 -> 200.
	if got := b.Grant(250, time.Second); got != 200 {
		t.Errorf("grant 1 = %v, want 200 (burst + window refill)", got)
	}
	clk.Advance(time.Second)
	// Window 2: the first window's refill was pre-consumed; only this
	// window's 100 tokens are available.
	if got := b.Grant(250, time.Second); got != 100 {
		t.Errorf("grant 2 = %v, want 100", got)
	}
	clk.Advance(time.Second)
	// Window 3: demand below budget -> fully admitted.
	if got := b.Grant(40, time.Second); got != 40 {
		t.Errorf("grant 3 = %v, want 40", got)
	}
	// Leftover 60 tokens remain for the next window.
	clk.Advance(time.Second)
	if got := b.Grant(1000, time.Second); got != 160 {
		t.Errorf("grant 4 = %v, want 160 (60 leftover + 100 refill)", got)
	}
}

func TestGrantSameWindowNoDoubleRefill(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 100, 10)
	// Four offers within the same 1s window (e.g. four op types sharing
	// one class queue) must share one window budget: 10 burst + 100
	// refill = 110 total, not 4x110.
	var total float64
	for i := 0; i < 4; i++ {
		total += b.Grant(1000, time.Second)
	}
	if total != 110 {
		t.Errorf("same-window grants totalled %v, want 110", total)
	}
	clk.Advance(time.Second)
	if got := b.Grant(1000, time.Second); got != 100 {
		t.Errorf("next window granted %v, want 100", got)
	}
}

func TestGrantUnlimited(t *testing.T) {
	b := NewUnlimited(clock.NewSim(epoch))
	if got := b.Grant(12345, time.Second); got != 12345 {
		t.Errorf("unlimited grant = %v, want full demand", got)
	}
}

func TestGrantZeroAndClosed(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 10)
	if b.Grant(0, time.Second) != 0 {
		t.Error("Grant(0) != 0")
	}
	// In debt: a reservation four times the burst leaves the fill at -30,
	// and a window's refill of 10 does not clear it. The grant admits
	// nothing — not a negative amount, which would hand the sleeper's
	// tokens back and lower Granted.
	done := make(chan error, 1)
	go func() { done <- b.Wait(40) }()
	clk.BlockUntil(1)
	if got := b.Grant(5, time.Second); got != 0 {
		t.Errorf("Grant on a bucket in debt admitted %v, want 0", got)
	}
	if got := b.Tokens(); got != -20 {
		t.Errorf("fill = %v after the grant, want the debt less one window's refill (-20)", got)
	}
	clk.Advance(3 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := b.Granted(); got != 40 {
		t.Errorf("Granted = %v, want the waiter's 40 and nothing else", got)
	}
	b.Close()
	if b.Grant(5, time.Second) != 0 {
		t.Error("Grant on closed bucket admitted tokens")
	}
}

// Property: over any sequence of Grant windows, total granted never
// exceeds capacity + rate*elapsed (the token-bucket envelope from network
// calculus, the paper's [28]).
func TestGrantEnvelopeProperty(t *testing.T) {
	f := func(demands []uint16, rateSeed, capSeed uint16) bool {
		rate := float64(rateSeed%1000) + 1
		capacity := float64(capSeed%500) + 1
		clk := clock.NewSim(epoch)
		b := New(clk, rate, capacity)
		elapsed := 0.0
		for _, d := range demands {
			b.Grant(float64(d), time.Second)
			clk.Advance(time.Second)
			elapsed++
			envelope := capacity + rate*elapsed + 1e-6
			if b.Granted() > envelope {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: TryTake conserves tokens — granted total equals requested
// total of successful takes, and fill never exceeds capacity.
func TestTryTakeConservationProperty(t *testing.T) {
	f := func(takes []uint8, advanceMs []uint8) bool {
		clk := clock.NewSim(epoch)
		b := New(clk, 50, 20)
		var granted float64
		for i, n := range takes {
			if b.TryTake(float64(n % 25)) {
				granted += float64(n % 25)
			}
			if i < len(advanceMs) {
				clk.Advance(time.Duration(advanceMs[i]) * time.Millisecond)
			}
			if b.Tokens() > b.Capacity()+1e-9 {
				return false
			}
		}
		return math.Abs(b.Granted()-granted) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWaitRealClockRateBound(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	// 200 ops at 1000 ops/s with burst 10 must take >= ~190ms.
	clk := clock.NewReal()
	b := New(clk, 1000, 10)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := b.Wait(1); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("200 ops at 1000/s burst 10 finished in %v; rate not enforced", elapsed)
	}
}
