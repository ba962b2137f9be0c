package tokenbucket

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"padll/internal/clock"
)

// drain empties b's current fill via TryTake and returns what it took.
func drain(t *testing.T, b *Bucket) float64 {
	t.Helper()
	n := b.Tokens()
	if n > 0 && !b.TryTake(n) {
		t.Fatalf("drain: TryTake(%v) refused", n)
	}
	return n
}

// TestBorrowFromIdleSibling: a dry bucket's TryTake is satisfied from an
// idle sibling's fill, and the transfer is visible on both sides.
func TestBorrowFromIdleSibling(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	b := New(clk, 100, 50)
	pool := NewBorrowPool(1.0)
	pool.Attach(a)
	pool.Attach(b)

	drain(t, a)
	if !a.TryTake(30) {
		t.Fatal("TryTake(30) on dry bucket with idle sibling refused — borrowing did not engage")
	}
	if got := b.Tokens(); got != 20 {
		t.Errorf("lender fill = %v, want 20 (lent 30 of 50)", got)
	}
	if got := pool.Outstanding(); got != 30 {
		t.Errorf("Outstanding = %v, want 30", got)
	}
	borrowed, _, _ := pool.Counts()
	if borrowed != 30 {
		t.Errorf("borrowed = %v, want 30", borrowed)
	}
}

// TestBorrowBudgetBounds: outstanding debt is capped at budget×capacity,
// so a dry bucket cannot strip its siblings bare.
func TestBorrowBudgetBounds(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	b := New(clk, 100, 50)
	pool := NewBorrowPool(0.5) // budget: 25 tokens for a
	pool.Attach(a)
	pool.Attach(b)

	drain(t, a)
	// Needs 40, budget allows 25: the take must fail, but the 25
	// borrowed tokens stay in a for the next admission.
	if a.TryTake(40) {
		t.Fatal("TryTake(40) succeeded beyond the borrow budget")
	}
	if got := pool.Outstanding(); got != 25 {
		t.Errorf("Outstanding = %v, want 25 (0.5 × capacity 50)", got)
	}
	if !a.TryTake(20) {
		t.Fatal("TryTake(20) refused despite 25 borrowed tokens in the bucket")
	}
	// Budget exhausted: no further borrowing.
	if a.TryTake(20) {
		t.Fatal("TryTake(20) succeeded with 5 tokens left and no borrow budget")
	}
	if got := b.Tokens(); got != 25 {
		t.Errorf("lender fill = %v, want 25", got)
	}
}

// TestBorrowSettleRestoresLenders: unconsumed borrowed tokens flow back
// to the exact lenders at Settle, restoring the pre-borrow allocation.
func TestBorrowSettleRestoresLenders(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	b := New(clk, 100, 50)
	c := New(clk, 100, 30)
	pool := NewBorrowPool(2.0)
	pool.Attach(a)
	pool.Attach(b)
	pool.Attach(c)

	drain(t, a)
	// Need 90 > what siblings hold (80): the take fails, but all 80
	// tokens moved into a (attach order: b fully, then c).
	if a.TryTake(90) {
		t.Fatal("TryTake(90) succeeded with only 80 tokens in the pool")
	}
	if got := a.Tokens(); got != 80 {
		t.Fatalf("borrower fill = %v, want 80", got)
	}
	pool.Settle()
	if got := a.Tokens(); got != 0 {
		t.Errorf("borrower fill after Settle = %v, want 0", got)
	}
	if got := b.Tokens(); got != 50 {
		t.Errorf("lender b fill after Settle = %v, want its pre-borrow 50", got)
	}
	if got := c.Tokens(); got != 30 {
		t.Errorf("lender c fill after Settle = %v, want its pre-borrow 30", got)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("Outstanding after Settle = %v, want 0", got)
	}
	borrowed, repaid, forgiven := pool.Counts()
	if borrowed != 80 || repaid != 80 || forgiven != 0 {
		t.Errorf("Counts = (%v, %v, %v), want (80, 80, 0)", borrowed, repaid, forgiven)
	}
}

// TestBorrowSettleForgivesConsumedDebt: a debtor that consumed its
// borrow pays what it still holds; the rest is written off so the next
// control round starts from a clean ledger.
func TestBorrowSettleForgivesConsumedDebt(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	b := New(clk, 100, 50)
	pool := NewBorrowPool(1.0)
	pool.Attach(a)
	pool.Attach(b)

	drain(t, a)
	if !a.TryTake(30) { // borrows 30 from b and consumes them
		t.Fatal("TryTake(30) refused")
	}
	pool.Settle()
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("Outstanding after Settle = %v, want 0", got)
	}
	_, repaid, forgiven := pool.Counts()
	if repaid != 0 || forgiven != 30 {
		t.Errorf("repaid=%v forgiven=%v, want 0 and 30 (debt consumed)", repaid, forgiven)
	}
	// b lost real tokens this round — by design: a used them for
	// admitted work the controller will observe and re-grant for.
	if got := b.Tokens(); got != 20 {
		t.Errorf("lender fill = %v, want 20", got)
	}
}

// TestBorrowGrantPath: the fluid Grant path (the simulator's tick
// admission) borrows a backlogged window's deficit from idle siblings.
func TestBorrowGrantPath(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 10)
	b := New(clk, 100, 50)
	pool := NewBorrowPool(5.0)
	pool.Attach(a)
	pool.Attach(b)

	// Window demand 40 against fill 10 + refill 10 (100/s × 100ms):
	// 20 own tokens, 20 borrowed from b.
	got := a.Grant(40, 100*time.Millisecond)
	if got != 40 {
		t.Fatalf("Grant = %v, want 40 (20 own + 20 borrowed)", got)
	}
	if fill := b.Tokens(); fill != 30 {
		t.Errorf("lender fill = %v, want 30", fill)
	}
	if out := pool.Outstanding(); out != 20 {
		t.Errorf("Outstanding = %v, want 20", out)
	}
}

// TestBorrowDetachForgives: detaching a member writes off its ledger
// rows both ways and stops it borrowing or lending.
func TestBorrowDetachForgives(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	b := New(clk, 100, 50)
	pool := NewBorrowPool(1.0)
	pool.Attach(a)
	pool.Attach(b)

	drain(t, a)
	if !a.TryTake(30) {
		t.Fatal("TryTake(30) refused")
	}
	if !pool.Detach(a) {
		t.Fatal("Detach reported non-member")
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("Outstanding after Detach = %v, want 0", got)
	}
	if pool.Members() != 1 {
		t.Errorf("Members = %d, want 1", pool.Members())
	}
	drain(t, a)
	if a.TryTake(10) {
		t.Error("detached bucket still borrows")
	}
}

// TestBorrowUnlimitedNeverLends: unlimited (passthrough) buckets are
// outside the token economy — they neither lend (their fill is
// symbolic) nor borrow (they never run dry).
func TestBorrowUnlimitedNeverLends(t *testing.T) {
	clk := clock.NewSim(epoch)
	a := New(clk, 100, 50)
	u := NewUnlimited(clk)
	pool := NewBorrowPool(1.0)
	pool.Attach(a)
	pool.Attach(u)

	drain(t, a)
	if a.TryTake(10) {
		t.Error("borrowed from an unlimited sibling — minted tokens out of thin air")
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %v, want 0", got)
	}
}

// TestBorrowConservationProperty drives random seeded borrow/repay
// interleavings on a simulated clock and asserts, after every step,
// that the pool never grants more than the control plane handed it:
// the sum of lifetime granted tokens stays within the sum of burst
// capacities plus accrued refill — the "sum of effective rates under
// one shard never exceeds its granted share" invariant. Same-seed
// runs must be bit-identical (determinism under the sim clock).
func TestBorrowConservationProperty(t *testing.T) {
	type final struct {
		granted, tokens [5]float64
	}
	run := func(t *testing.T, seed int64) final {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewSim(epoch)
		pool := NewBorrowPool(0.75)
		const k = 5
		var (
			buckets  [k]*Bucket
			rates    [k]float64
			caps     [k]float64
			horizons [k]time.Time // furthest refill cursor (Grant pre-consumes its window)
		)
		for i := 0; i < k; i++ {
			rates[i] = 50 + rng.Float64()*200
			caps[i] = 20 + rng.Float64()*80
			buckets[i] = New(clk, rates[i], caps[i])
			pool.Attach(buckets[i])
			horizons[i] = epoch
		}
		bound := func() float64 {
			now := clk.Now()
			var sum float64
			for i := 0; i < k; i++ {
				h := horizons[i]
				if now.After(h) {
					h = now
				}
				sum += caps[i] + rates[i]*h.Sub(epoch).Seconds()
			}
			return sum
		}
		granted := func() float64 {
			var sum float64
			for i := 0; i < k; i++ {
				sum += buckets[i].Granted()
			}
			return sum
		}
		for step := 0; step < 3000; step++ {
			switch rng.Intn(8) {
			case 0, 1, 2: // non-blocking admission, possibly borrowing
				buckets[rng.Intn(k)].TryTake(1 + rng.Float64()*40)
			case 3, 4: // fluid admission, possibly borrowing
				i := rng.Intn(k)
				dt := time.Duration(rng.Intn(200)) * time.Millisecond
				buckets[i].Grant(rng.Float64()*120, dt)
				if h := clk.Now().Add(dt); h.After(horizons[i]) {
					horizons[i] = h
				}
			case 5: // time passes
				clk.Advance(time.Duration(rng.Intn(150)) * time.Millisecond)
			case 6: // plan push lands
				pool.Settle()
			case 7: // membership churn: a stage leaves and rejoins
				i := rng.Intn(k)
				pool.Detach(buckets[i])
				pool.Attach(buckets[i])
			}
			if got, max := granted(), bound(); got > max+1e-6 {
				t.Fatalf("seed %d step %d: granted %v exceeds conservation bound %v — borrowing minted tokens",
					seed, step, got, max)
			}
			for i := 0; i < k; i++ {
				if fill := buckets[i].Tokens(); fill < -1e-6 {
					t.Fatalf("seed %d step %d: bucket %d fill went negative (%v)", seed, step, i, fill)
				}
			}
		}
		var f final
		for i := 0; i < k; i++ {
			f.granted[i] = buckets[i].Granted()
			f.tokens[i] = buckets[i].Tokens()
		}
		return f
	}
	for _, seed := range []int64{1, 7, 42, 20220501} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := run(t, seed)
			again := run(t, seed)
			if first != again {
				t.Errorf("same-seed runs diverged under the sim clock:\n first: %+v\nsecond: %+v", first, again)
			}
		})
	}
}
