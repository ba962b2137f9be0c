// Package tokenbucket implements the rate-limiting primitive at the heart
// of PADLL's data plane (§III-A of the paper): each stage queue owns a
// token bucket whose refill rate and burst capacity are set by the control
// plane, and every request admitted to the queue consumes one token
// (or, for data operations, one token per byte) before being submitted to
// the file system.
//
// The bucket supports four admission styles:
//
//   - Wait: block the calling goroutine until its tokens have accrued (the
//     enforcement path used by live stages);
//   - TryTake: non-blocking admission (used for policing, tests, and
//     drop-based policies);
//   - TakeAt: TryTake at a caller-supplied instant (the stage's admit
//     path tries it before Wait, so a request that finds its token in
//     hand reads no clock and touches nothing but the bucket);
//   - Grant: fluid admission over a time window (used by the discrete-tick
//     cluster simulator to model thousands of requests per tick without a
//     goroutine per request).
//
// Rates are retunable at any time; retuning settles accrued tokens at the
// old rate first, so enforcement is exact across rule changes.
package tokenbucket

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
)

// ErrClosed is returned by Wait when the bucket is closed while waiting.
var ErrClosed = errors.New("tokenbucket: closed")

// Infinite is a refill rate treated as "no limit": every admission
// succeeds immediately. The control plane uses it for passthrough queues.
const Infinite = math.MaxFloat64

// Bucket is a token bucket. It is safe for concurrent use.
//
// Unlimited buckets (rate == Infinite, the passthrough configuration)
// admit on a lock-free fast path: TryTake/Wait check an atomic mirror of
// the rate and record the grant with an atomic float add, so stages in
// passthrough mode never serialize on the bucket mutex. Finite-rate
// admission keeps the mutex — token arithmetic must settle exactly.
type Bucket struct {
	mu       sync.Mutex
	clk      clock.Clock
	rate     float64 // tokens per second; Infinite disables limiting
	capacity float64 // burst size, tokens
	// tokens is the current fill, <= capacity. Below zero it is debt:
	// tokens that requests asleep in Wait have taken and refill has yet
	// to cover, so every other admission queues behind them.
	tokens float64
	last   time.Time
	closed bool
	// reserved is the lifetime count of tokens taken as debt; its value as
	// a sleeper joins is that sleeper's place, and its growth since then
	// is what queues behind that sleeper.
	reserved float64
	// retune is closed and replaced when the sleepers' deadlines move
	// (retune, deposit, Close); with no debt nobody is owed a wake-up.
	retune chan struct{}
	// timers holds idle sleep timers on clk; sleeps counts the times one
	// was armed: once per admitted waiter unless a broadcast intervenes.
	timers sync.Pool
	sleeps uint64

	// unlimitedA/closedA mirror rate == Infinite and closed for the
	// lock-free admission path; both are updated under mu.
	unlimitedA atomic.Bool
	closedA    atomic.Bool
	// grantedBits holds the float64 bits of the lifetime granted-token
	// count; CAS-add keeps it exact from the locked and lock-free paths.
	grantedBits atomic.Uint64
}

// addGranted atomically adds n to the lifetime granted count.
func (b *Bucket) addGranted(n float64) {
	for {
		old := b.grantedBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + n)
		if b.grantedBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// New returns a bucket refilling at rate tokens/second with the given
// burst capacity, initially full. A non-positive capacity is clamped to 1
// token, a non-positive rate to a minimal positive one.
func New(clk clock.Clock, rate, capacity float64) *Bucket {
	if capacity <= 0 {
		capacity = 1
	}
	if rate <= 0 {
		rate = 1e-9
	}
	b := &Bucket{
		clk:      clk,
		rate:     rate,
		capacity: capacity,
		tokens:   capacity,
		last:     clk.Now(),
		retune:   make(chan struct{}),
	}
	b.unlimitedA.Store(rate == Infinite)
	return b
}

// NewUnlimited returns a bucket that admits everything immediately.
func NewUnlimited(clk clock.Clock) *Bucket { return New(clk, Infinite, Infinite) }

// refillLocked accrues tokens for the time elapsed since the last refill.
// The refill cursor never runs backwards: an instant at or before last
// accrues nothing and leaves last where it is, so a caller holding a
// stale instant (TakeAt) can only under-refill.
func (b *Bucket) refillLocked(now time.Time) {
	if b.rate == Infinite {
		b.tokens = Infinite
		if now.After(b.last) {
			b.last = now
		}
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.last = now
}

// Rate returns the current refill rate (tokens/second).
func (b *Bucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// Capacity returns the burst capacity.
func (b *Bucket) Capacity() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// Tokens returns the current fill after accruing elapsed refill.
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clk.Now())
	return b.tokens
}

// Granted returns the total number of tokens granted so far.
func (b *Bucket) Granted() float64 {
	return math.Float64frombits(b.grantedBits.Load())
}

// Set retunes rate and capacity atomically, settling accrual at the old
// rate up to the current instant first; sleepers wake to re-time what
// they are still owed at the new rate. This is the entry point the control
// plane uses when the feedback loop pushes a new rule (§III-B step 3).
func (b *Bucket) Set(rate, capacity float64) {
	if rate <= 0 {
		rate = 1e-9
	}
	if capacity <= 0 {
		capacity = 1
	}
	b.mu.Lock()
	b.refillLocked(b.clk.Now())
	b.broadcastLocked()
	b.rate = rate
	b.capacity = capacity
	b.unlimitedA.Store(rate == Infinite)
	if rate == Infinite {
		b.tokens = Infinite
	} else if b.tokens > capacity {
		b.tokens = capacity
	}
	b.mu.Unlock()
}

// broadcastLocked wakes the sleepers to re-time themselves; callers invoke
// it before they change the fill. At or above zero every reservation is
// covered and its sleep has run out.
func (b *Bucket) broadcastLocked() {
	if b.tokens >= 0 {
		return
	}
	close(b.retune)
	b.retune = make(chan struct{})
}

// TryTake attempts to take n tokens without blocking. It reports whether
// the tokens were granted.
//
//lint:hotpath
func (b *Bucket) TryTake(n float64) bool {
	if n <= 0 {
		return true
	}
	// Unlimited fast path: no token arithmetic to settle, so admission
	// needs no lock. A retune to a finite rate racing this check may let
	// one in-flight admission through ungated — the same window the
	// locked path has between reading the rate and acting on it.
	if b.unlimitedA.Load() {
		if b.closedA.Load() {
			return false
		}
		b.addGranted(n)
		return true
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.refillLocked(b.clk.Now()) //lint:allow hotpathcheck TryTake refills to the exact instant; callers that amortize the clock use TakeAt
	ok := b.tokens >= n
	if ok {
		b.tokens -= n
		b.addGranted(n)
	}
	b.mu.Unlock()
	return ok
}

// TakeAt is TryTake against a caller-supplied instant: it refills up to
// now, takes n tokens if the bucket holds them, and otherwise reports
// false without blocking. now may lag the
// clock (hot paths amortize clock reads): refill never runs backwards,
// so a stale instant can only leave tokens unaccrued, and the caller
// falls back to Wait, which reads the clock. Granted stays exact.
//
//lint:hotpath
func (b *Bucket) TakeAt(n float64, now time.Time) bool {
	if n <= 0 {
		return true
	}
	// Unlimited fast path; see TryTake.
	if b.unlimitedA.Load() {
		if b.closedA.Load() {
			return false
		}
		b.addGranted(n)
		return true
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.refillLocked(now)
	ok := b.tokens >= n
	if ok {
		b.tokens -= n
		b.addGranted(n)
	}
	b.mu.Unlock()
	return ok
}

// Wait takes n tokens, blocking until they have accrued. A request that
// finds the bucket dry reserves: it takes its tokens at once, driving the
// fill negative — so every later arrival, by any admission style, queues
// behind it, and a request larger than the burst is not starved — and
// sleeps once, until refill has covered the debt up to its place. If the
// bucket is closed meanwhile it hands them back and returns ErrClosed.
func (b *Bucket) Wait(n float64) error {
	if n <= 0 {
		return nil
	}
	// Unlimited fast path; see TryTake.
	if b.unlimitedA.Load() {
		if b.closedA.Load() {
			return ErrClosed
		}
		b.addGranted(n)
		return nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.refillLocked(b.clk.Now()) //lint:allow hotpathcheck Wait refills to the exact instant; the stage tries TakeAt on an amortized one first
	b.tokens -= n
	if b.tokens >= 0 {
		b.addGranted(n)
		b.mu.Unlock()
		return nil
	}
	b.reserved += n
	place := b.reserved
	t, _ := b.timers.Get().(clock.Timer)
	if t == nil {
		t = b.clk.NewTimer()
	}
	for {
		// Owed up to this request's place: the debt less what queues behind.
		owed := -b.tokens - (b.reserved - place)
		if b.closed || owed <= 0 {
			break
		}
		// Rounded to the nanosecond, and capped (a century and a half) so
		// that a near-zero rate cannot overflow time.Duration.
		t.Reset(time.Duration(min(owed*float64(time.Second)/b.rate+0.5, 1<<62)))
		b.sleeps++
		retune := b.retune
		b.mu.Unlock()
		select {
		case <-t.C():
			b.timers.Put(t)
			b.addGranted(n)
			return nil
		case <-retune:
		}
		b.mu.Lock()
		b.refillLocked(b.clk.Now()) //lint:allow hotpathcheck a broadcast moved the deadline; what is owed is recomputed exactly
	}
	var err error
	if b.closed {
		b.tokens += n
		err = ErrClosed
	} else {
		b.addGranted(n)
	}
	b.mu.Unlock()
	t.Stop()
	b.timers.Put(t)
	return err
}

// Grant performs fluid admission for the discrete-tick simulator: given a
// demand of n tokens arriving uniformly over an admission window of
// length dt starting now, it returns how many tokens are admitted in that
// window: the current fill (burst credit) plus the refill accruing during
// the window. The remainder is the caller's backlog. Unlike Wait it never
// blocks.
//
// The window's refill is pre-consumed (the bucket's refill cursor moves
// to now+dt), so callers may advance the clock by dt between Grant calls
// without double-counting. Do not mix Grant with Wait/TryTake on the same
// bucket: fluid admission draws on the future window that the
// blocking paths would account differently.
func (b *Bucket) Grant(n float64, dt time.Duration) float64 {
	if n <= 0 {
		return 0
	}
	if dt < 0 {
		dt = 0
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	now := b.clk.Now()
	b.refillLocked(now)
	if b.rate == Infinite {
		b.addGranted(n)
		b.mu.Unlock()
		return n
	}
	// Refill only for the part of [last, now+dt) not already granted: a
	// second Grant within the same window draws on the window's
	// leftovers (which may exceed the burst capacity — they are current
	// budget, not carry-over), while carry-over across window boundaries
	// is clamped to the burst capacity as usual.
	end := now.Add(dt)
	if window := end.Sub(b.last); window > 0 {
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
		b.tokens += b.rate * window.Seconds()
		b.last = end
	}
	// A fill that reservations (Wait) have driven below zero admits
	// nothing: the window's refill went to the debt.
	admit := max(0, math.Min(n, b.tokens))
	b.tokens -= admit
	b.addGranted(admit)
	b.mu.Unlock()
	return admit
}

// Close releases all waiters with ErrClosed and rejects future admissions.
func (b *Bucket) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.closedA.Store(true)
		b.broadcastLocked()
	}
	b.mu.Unlock()
}
