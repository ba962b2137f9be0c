// Decentralized token borrowing between sibling buckets (AdapTBF-style).
//
// A BorrowPool groups the buckets of sibling stages that share one
// shard's grant. Between control rounds, a bucket that runs dry may
// borrow unused tokens from its siblings: tokens are *moved*, never
// minted, so the sum of tokens granted across the pool can never exceed
// what the control plane handed the group — the conservation invariant
// the property tests pin. Borrowing is bounded by a per-member budget
// (a fraction of the borrower's burst capacity of outstanding debt) and
// every transfer is recorded in a pairwise debt ledger; Settle, called
// when the control plane pushes its next plan, repays creditors from
// whatever the debtor still holds and forgives the rest (the fresh plan
// re-grants from observed demand, so carrying debt across rounds would
// double-penalize the borrower).
//
// Locking: BorrowPool.mu is always acquired before any member's
// Bucket.mu, and a bucket never calls into its pool while holding its
// own mutex (TryTake/Grant drop Bucket.mu before borrowing). That keeps
// the two-level locking deadlock-free with any number of concurrent
// borrowers.
package tokenbucket

import (
	"math"
	"sync"
)

// DefaultBorrowBudget is the default bound on a member's outstanding
// debt, as a fraction of its burst capacity.
const DefaultBorrowBudget = 0.5

// BorrowPool links sibling buckets for decentralized token borrowing.
// It is safe for concurrent use.
type BorrowPool struct {
	mu     sync.Mutex
	budget float64
	// members in attach order; borrow scans lenders in this order, so
	// sim-clock runs are deterministic.
	members []*Bucket
	// debts[i][j] is how many tokens members[i] currently owes
	// members[j]; owed[i] caches the row sum.
	debts [][]float64
	owed  []float64
	// borrowed/repaid/forgiven are lifetime token counts, for the chaos
	// harness's work-conservation accounting.
	borrowed float64
	repaid   float64
	forgiven float64
}

// NewBorrowPool returns an empty pool. budget bounds each member's
// outstanding debt as a fraction of its burst capacity; non-positive
// selects DefaultBorrowBudget.
func NewBorrowPool(budget float64) *BorrowPool {
	if budget <= 0 {
		budget = DefaultBorrowBudget
	}
	return &BorrowPool{budget: budget}
}

// Attach adds b to the pool. Attaching an already-attached bucket is a
// no-op. A bucket belongs to at most one pool; attaching to a second
// pool moves it (the first pool's ledger entries for it are forgiven).
func (p *BorrowPool) Attach(b *Bucket) {
	p.mu.Lock()
	if p.indexOf(b) >= 0 {
		p.mu.Unlock()
		return
	}
	p.members = append(p.members, b)
	p.owed = append(p.owed, 0)
	for i := range p.debts {
		p.debts[i] = append(p.debts[i], 0)
	}
	p.debts = append(p.debts, make([]float64, len(p.members)))
	p.mu.Unlock()

	b.mu.Lock()
	prev := b.pool
	b.pool = p
	b.mu.Unlock()
	if prev != nil && prev != p {
		prev.Detach(b)
	}
}

// Detach removes b from the pool, forgiving any debt it owes or is
// owed. It reports whether b was a member.
func (p *BorrowPool) Detach(b *Bucket) bool {
	p.mu.Lock()
	i := p.indexOf(b)
	if i < 0 {
		p.mu.Unlock()
		return false
	}
	for j := range p.members {
		if j == i {
			continue
		}
		p.forgiven += p.debts[i][j] + p.debts[j][i]
		p.owed[j] -= p.debts[j][i]
	}
	for j := range p.debts {
		p.debts[j] = append(p.debts[j][:i], p.debts[j][i+1:]...)
	}
	p.debts = append(p.debts[:i], p.debts[i+1:]...)
	p.members = append(p.members[:i], p.members[i+1:]...)
	p.owed = append(p.owed[:i], p.owed[i+1:]...)
	p.mu.Unlock()

	b.mu.Lock()
	if b.pool == p {
		b.pool = nil
	}
	b.mu.Unlock()
	return true
}

// indexOf returns b's member index, or -1. Caller holds p.mu.
func (p *BorrowPool) indexOf(b *Bucket) int {
	for i, m := range p.members {
		if m == b {
			return i
		}
	}
	return -1
}

// Members returns the current member count.
func (p *BorrowPool) Members() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// Outstanding returns the total debt currently owed across the pool.
func (p *BorrowPool) Outstanding() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total float64
	for _, o := range p.owed {
		total += o
	}
	return total
}

// Counts reports lifetime token movement: borrowed (transferred to a
// dry sibling), repaid (returned at Settle), forgiven (written off at
// Settle or Detach).
func (p *BorrowPool) Counts() (borrowed, repaid, forgiven float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.borrowed, p.repaid, p.forgiven
}

// borrowInto moves up to need tokens from dst's siblings into dst,
// bounded by dst's remaining borrow budget, recording the transfers in
// the debt ledger. It returns the amount moved. Never called with any
// bucket mutex held.
func (p *BorrowPool) borrowInto(dst *Bucket, need float64) float64 {
	if need <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	di := p.indexOf(dst)
	if di < 0 {
		return 0
	}
	dst.mu.Lock()
	budget := p.budget * dst.capacity
	closed := dst.closed
	dst.mu.Unlock()
	if closed {
		return 0
	}
	if room := budget - p.owed[di]; need > room {
		need = room
	}
	if need <= 0 {
		return 0
	}
	var got float64
	for j, lender := range p.members {
		if j == di {
			continue
		}
		take := lender.lend(need - got)
		if take > 0 {
			p.debts[di][j] += take
			p.owed[di] += take
			got += take
		}
		if got >= need {
			break
		}
	}
	if got > 0 {
		p.borrowed += got
		dst.deposit(got, false)
	}
	return got
}

// Settle repays every outstanding debt from whatever each debtor still
// holds — token for token, creditors in attach order — and forgives the
// remainder. The control plane calls it when a plan push lands, so a
// fresh allocation round always starts from a clean ledger with each
// lender's unconsumed tokens restored exactly.
func (p *BorrowPool) Settle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, debtor := range p.members {
		if p.owed[i] <= 0 {
			continue
		}
		for j, creditor := range p.members {
			d := p.debts[i][j]
			if d <= 0 {
				continue
			}
			paid := debtor.withdrawUpTo(d)
			if paid > 0 {
				creditor.deposit(paid, true)
				p.repaid += paid
			}
			if rem := d - paid; rem > 0 {
				p.forgiven += rem
			}
			p.debts[i][j] = 0
		}
		p.owed[i] = 0
	}
}

// ---- bucket-side borrow plumbing ----

// lend withdraws up to max spare tokens for a borrowing sibling. Only
// finite, open buckets lend, and only tokens they currently hold (the
// fill never goes negative on a lend).
func (b *Bucket) lend(max float64) float64 {
	if max <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.rate == Infinite {
		return 0
	}
	b.refillLocked(b.clk.Now())
	take := math.Min(max, b.tokens)
	if take <= 0 {
		return 0
	}
	b.tokens -= take
	return take
}

// withdrawUpTo takes up to max tokens back from a debtor at settle
// time; a debtor that consumed its borrow pays what it can.
func (b *Bucket) withdrawUpTo(max float64) float64 {
	return b.lend(max)
}

// deposit adds transferred tokens to the fill. Borrow deposits are not
// clamped — the borrower needs them now, and they are consumed by the
// retrying admission before the next refill would clamp them; repay
// deposits are clamped to capacity, matching what the lender could have
// accrued on its own.
func (b *Bucket) deposit(n float64, clamp bool) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.rate == Infinite {
		return
	}
	b.broadcastLocked()
	b.tokens += n
	if clamp && b.tokens > b.capacity {
		b.tokens = b.capacity
	}
}

// takeBorrowed is TryTake's shortage path: borrow the deficit from the
// pool, then retry the take once. Borrowed tokens that a racing caller
// consumed first stay in the bucket — nothing is lost, the next
// admission uses them.
//
//lint:coldpath shortage path: runs only when the bucket is dry, so the caller is already throttled and allocation cost is immaterial
func (b *Bucket) takeBorrowed(pool *BorrowPool, n, need float64) bool {
	pool.borrowInto(b, need)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.refillLocked(b.clk.Now())
	if b.tokens >= n {
		b.tokens -= n
		b.addGranted(n)
		return true
	}
	return false
}

// grantBorrowed is Grant's shortage path: borrow the window's deficit
// and admit whatever arrived.
//
//lint:coldpath shortage path: fluid admission already returned the shaped portion; this only tops it up from idle siblings
func (b *Bucket) grantBorrowed(pool *BorrowPool, need float64) float64 {
	pool.borrowInto(b, need)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	take := math.Min(need, b.tokens)
	if take <= 0 {
		return 0
	}
	b.tokens -= take
	b.addGranted(take)
	return take
}
