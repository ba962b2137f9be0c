package tokenbucket

import (
	"sync"
	"testing"
	"time"

	"padll/internal/clock"
)

// TestTakeAtStaleInstantNeverRefillsBackwards: an instant older than the
// bucket's refill cursor accrues nothing and leaves the cursor where it
// is, and the exact path that follows still accrues the whole interval,
// once.
func TestTakeAtStaleInstantNeverRefillsBackwards(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 5)
	stale := clk.Now()
	for i := 0; i < 5; i++ {
		if !b.TakeAt(1, stale) {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	// Move the cursor forward with an exact read that accrues one token.
	clk.Advance(100 * time.Millisecond)
	if got := b.Tokens(); got != 1 {
		t.Fatalf("Tokens after 100ms = %v, want 1", got)
	}
	last := b.last
	if !b.TakeAt(1, stale) {
		t.Fatal("TakeAt refused a token that is in hand")
	}
	if b.TakeAt(1, stale) {
		t.Fatal("TakeAt with a stale instant minted a token")
	}
	if !b.last.Equal(last) {
		t.Errorf("stale TakeAt moved last from %v to %v", last, b.last)
	}
	// The exact path accrues [last, now] once: 200ms more = 2 tokens.
	clk.Advance(200 * time.Millisecond)
	if got := b.Tokens(); got != 2 {
		t.Errorf("Tokens after 200ms more = %v, want 2", got)
	}
	if got := b.Granted(); got != 6 {
		t.Errorf("Granted = %v, want 6", got)
	}
}

// TestStaleTakeOverAdmitsByRateTimesStaleness pins what a stale instant
// can cost: a full bucket that takes k tokens at an instant s = now −
// staleness and then drains at now has admitted, at the one instant
// now, its capacity plus rate × staleness — the refill to now credits
// [s, now] on top of the take settled at s. That is the bound
// refillLocked states, and it is reached, never exceeded.
func TestStaleTakeOverAdmitsByRateTimesStaleness(t *testing.T) {
	const rate, capacity = 1000, 63
	for _, k := range []int{1, 5, 20} {
		staleness := time.Duration(k) * time.Millisecond
		clk := clock.NewSim(epoch)
		b := New(clk, rate, capacity)
		s := clk.Now()
		clk.Advance(staleness)
		for i := 0; i < k; i++ {
			if !b.TakeAt(1, s) {
				t.Fatalf("staleness %v: take %d at the stale instant refused by a full bucket", staleness, i)
			}
		}
		admitted := k
		for i := 0; i < 2*capacity && b.TakeAt(1, clk.Now()); i++ {
			admitted++
		}
		if bound := capacity + int(rate*staleness.Seconds()); admitted != bound {
			t.Errorf("staleness %v: %d admitted at one instant, want the bound capacity + rate × staleness = %d, reached",
				staleness, admitted, bound)
		}
		if got := b.Granted(); got != float64(admitted) {
			t.Errorf("staleness %v: Granted = %v, want %d", staleness, got, admitted)
		}
	}
}

// TestTakeAtFreshInstantRefills: with the clock's own instant TakeAt is
// TryTake.
func TestTakeAtFreshInstantRefills(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := New(clk, 10, 2)
	if !b.TakeAt(2, clk.Now()) || b.TakeAt(1, clk.Now()) {
		t.Fatal("burst not enforced")
	}
	clk.Advance(100 * time.Millisecond)
	if !b.TakeAt(1, clk.Now()) {
		t.Fatal("TakeAt did not accrue the elapsed refill")
	}
	if !b.TakeAt(0, clk.Now()) {
		t.Error("TakeAt(0) must always succeed")
	}
}

// TestTakeAtUnlimitedAndClosed covers the lock-free branch and Close on
// both branches.
func TestTakeAtUnlimitedAndClosed(t *testing.T) {
	clk := clock.NewSim(epoch)
	u, f := NewUnlimited(clk), New(clk, 1, 1)
	if !u.TakeAt(1e6, clk.Now().Add(-time.Hour)) {
		t.Fatal("unlimited TakeAt refused")
	}
	u.Close()
	f.Close()
	if u.TakeAt(1, clk.Now()) || f.TakeAt(1, clk.Now()) {
		t.Error("TakeAt succeeded on a closed bucket")
	}
	if got := u.Granted(); got != 1e6 {
		t.Errorf("Granted = %v, want 1e6", got)
	}
}

// TestTakeAtConcurrentGrantedExact races TakeAt callers holding stale
// and fresh instants on one finite bucket: the grants the callers saw,
// Granted, and the tokens the bucket held must agree.
func TestTakeAtConcurrentGrantedExact(t *testing.T) {
	clk := clock.NewReal()
	const burst = 5000
	b := New(clk, 1e-9, burst) // no refill to speak of: the burst is all there is
	stale := clk.Now().Add(-time.Minute)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var took int
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := 0; i < burst; i++ {
				now := stale
				if g%2 == 0 {
					now = clk.Now()
				}
				if b.TakeAt(1, now) {
					n++
				}
			}
			mu.Lock()
			took += n
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if took != burst {
		t.Errorf("callers took %d tokens of a %d-token burst", took, burst)
	}
	if got := b.Granted(); got != burst {
		t.Errorf("Granted = %v, want %d", got, burst)
	}
}
