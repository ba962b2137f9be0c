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
//
// Admission writes no line that other cores write while the bucket does
// not bind. An unlimited bucket admits lock-free. A finite bucket on the
// real clock hands each stripe (metrics.StripeIndex) a share of its fill,
// a lot of shareLot tokens, which that stripe's callers spend with a CAS
// on a padded cell of their own: the mutex is taken once per lot, not
// once per request. Shares are handed out only while the fill stays at or
// above half the capacity, and every decision that could refuse or queue
// a request takes them all back first, so a bucket that binds admits,
// polices and queues exactly as a mutex-only one would.
package tokenbucket

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"padll/internal/clock"
	"padll/internal/metrics"
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
// passthrough mode never serialize on the bucket mutex. A finite bucket
// settles its token arithmetic under the mutex, but on the real clock a
// request whose stripe holds a share admits from it lock-free (see
// shareCell). The bucket's content is its fill plus the shares out.
type Bucket struct {
	// The lock-free paths read these words on every admission; they are
	// written under mu, and only when a mode flips. A line of padding
	// keeps them off the lines the locked path writes.
	//
	// unlimitedA/closedA mirror rate == Infinite and closed. sharing
	// mirrors out > 0: only then does an admission look at its stripe's
	// cell. stripeOf names the calling goroutine's cell: set at New to
	// metrics.StripeIndex on clock.Real, nil (no shares) on any other
	// clock. cells is allocated at the first handout, before sharing is
	// first set, and never replaced.
	unlimitedA atomic.Bool
	closedA    atomic.Bool
	sharing    atomic.Bool
	stripeOf   func() int
	cells      *[metrics.Stripes]shareCell
	_          [64]byte

	mu sync.Mutex
	// tokens is the fill, <= capacity - out. Below zero it is debt:
	// tokens that requests asleep in Wait have taken and refill has yet
	// to cover, so every other admission queues behind them.
	tokens float64
	// out is what the stripes were handed and not yet taken back: their
	// shares plus what they have admitted from them since.
	out  float64
	last time.Time
	// grantedBits holds the float64 bits of the lifetime granted-token
	// count, the shares' admissions excepted until they are taken back;
	// CAS-add keeps it exact from the locked and lock-free paths.
	grantedBits atomic.Uint64
	closed      bool
	// reserved is the lifetime count of tokens taken as debt; its value as
	// a sleeper joins is that sleeper's place, and its growth since then
	// is what queues behind that sleeper.
	reserved float64
	// retune is closed and replaced when the sleepers' deadlines move
	// (retune, deposit, Close); with no debt nobody is owed a wake-up.
	retune chan struct{}
	// sleeps counts the times a sleep timer was armed: once per admitted
	// waiter unless a broadcast intervenes.
	sleeps uint64

	rate     float64 // tokens per second; Infinite disables limiting
	capacity float64 // burst size, tokens
	clk      clock.Clock
	// timers holds idle sleep timers on clk.
	timers sync.Pool
}

// shareLot is the tokens one handout moves from the fill to a stripe.
const shareLot = 32

// shareCell is one stripe's share of a finite bucket's fill, padded so
// neighbouring stripes do not share a cache line. Only the stripe's own
// callers spend it; a take-back under mu swaps it to zero, so a spend
// racing one either lands first or fails and takes the locked path.
type shareCell struct {
	// bits holds the float64 bits of the share's unspent tokens.
	bits atomic.Uint64
	// handed is what the stripe was handed since its last take-back:
	// handed minus the share is what it has admitted since. Under mu.
	handed float64
	_      [48]byte
}

// spend takes n tokens from the share if it holds them.
func (c *shareCell) spend(n float64) bool {
	for {
		old := c.bits.Load()
		have := math.Float64frombits(old)
		if have < n {
			return false
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(have-n)) {
			return true
		}
	}
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
// token, a non-positive rate to a minimal positive one. Only a bucket on
// clock.Real hands out shares: a simulated clock's admissions all settle
// under the mutex, in the order the simulation makes them.
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
	if _, ok := clk.(clock.Real); ok {
		b.stripeOf = metrics.StripeIndex
	}
	b.unlimitedA.Store(rate == Infinite)
	return b
}

// NewUnlimited returns a bucket that admits everything immediately.
func NewUnlimited(clk clock.Clock) *Bucket { return New(clk, Infinite, Infinite) }

// refillLocked accrues tokens for the time elapsed since the last refill.
// The refill cursor never runs backwards: an instant at or before last
// accrues nothing and leaves last where it is. A stale instant (TakeAt)
// can still over-admit: a take settled at s spends tokens the refill to
// a later now credits again for [s, now], so the admissions at one
// instant now can exceed the capacity by up to rate × (now − s) — within
// capacity + rate × T over the window T that begins at s.
//
// The credit is capped at what the content had room for when mu was
// last released, the fill plus out (out counts a share in full, spent or
// not): a share spent after the interval began must not find the
// interval's refill waiting for it as well. So the content never exceeds
// what a mutex-only bucket would hold at the same instant, and over any
// window T admissions stay within capacity + rate × T. With no shares out
// the cap is the capacity.
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
	if top := b.capacity - b.out; b.tokens > top {
		b.tokens = top
	}
	b.last = now
}

// takeBackLocked returns c's unspent share to the fill and books what
// its stripe admitted from it.
func (b *Bucket) takeBackLocked(c *shareCell) {
	if c.handed == 0 {
		return
	}
	left := math.Float64frombits(c.bits.Swap(0))
	b.tokens += left
	b.out -= c.handed
	b.addGranted(c.handed - left)
	c.handed = 0
}

// takeBackAllLocked returns every share to the fill. A decision that
// could refuse or queue a request, and a retune or a close, is taken on
// the whole content.
func (b *Bucket) takeBackAllLocked() {
	if b.out == 0 {
		return
	}
	for i := range b.cells {
		b.takeBackLocked(&b.cells[i])
	}
	b.publishSharingLocked()
}

// reclaimLocked readies a locked admission of n tokens with shares out:
// the caller's own share, which fell short of n, returns to the fill,
// and if the fill is still short so does every other.
func (b *Bucket) reclaimLocked(n float64) {
	b.takeBackLocked(&b.cells[b.stripeOf()])
	if b.tokens < n {
		b.takeBackAllLocked()
	}
}

// handOutLocked gives the caller's stripe a lot of shareLot tokens from
// the fill. Callers hand out only on a bucket that shares, and only while
// the fill stays at or above half the capacity after the lot leaves it
// (the guard sits at the call sites, where it inlines). Whatever the
// stripe still holds is taken back first, so the lot replaces it.
func (b *Bucket) handOutLocked() {
	if b.rate == Infinite {
		return // a retune raced the caller past the unlimited fast path
	}
	if b.cells == nil {
		b.cells = new([metrics.Stripes]shareCell)
	}
	c := &b.cells[b.stripeOf()]
	b.takeBackLocked(c)
	b.tokens -= shareLot
	b.out += shareLot
	c.handed = shareLot
	c.bits.Store(math.Float64bits(shareLot))
}

// publishSharingLocked mirrors out > 0 into sharing. It stores only when
// the mirror flips, so a bucket that keeps handing out shares keeps the
// flag's line shared.
func (b *Bucket) publishSharingLocked() {
	if on := b.out > 0; on != b.sharing.Load() {
		b.sharing.Store(on)
	}
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

// Tokens returns the content after accruing elapsed refill: the fill
// plus the shares out.
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clk.Now())
	tokens := b.tokens
	if b.out > 0 {
		for i := range b.cells {
			tokens += math.Float64frombits(b.cells[i].bits.Load())
		}
	}
	return tokens
}

// Granted returns the total number of tokens granted so far. With shares
// out it adds what the stripes have admitted from them, under mu, where
// what each was handed holds still.
func (b *Bucket) Granted() float64 {
	if !b.sharing.Load() {
		return math.Float64frombits(b.grantedBits.Load())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	granted := math.Float64frombits(b.grantedBits.Load())
	for i := range b.cells {
		c := &b.cells[i]
		granted += c.handed - math.Float64frombits(c.bits.Load())
	}
	return granted
}

// Set retunes rate and capacity atomically, settling accrual at the old
// rate up to the current instant first and taking every share back;
// sleepers wake to re-time what they are still owed at the new rate.
// This is the entry point the control plane uses when the feedback loop
// pushes a new rule (§III-B step 3).
func (b *Bucket) Set(rate, capacity float64) {
	if rate <= 0 {
		rate = 1e-9
	}
	if capacity <= 0 {
		capacity = 1
	}
	b.mu.Lock()
	b.refillLocked(b.clk.Now())
	b.takeBackAllLocked()
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

// TryTake attempts to take n tokens without blocking, refilling to the
// clock's current instant. It reports whether the tokens were granted.
func (b *Bucket) TryTake(n float64) bool { return b.TakeAt(n, b.clk.Now()) }

// TakeAt is TryTake against a caller-supplied instant: it refills up to
// now, takes n tokens if the bucket holds them, and otherwise reports
// false without blocking. now may lag the clock (hot paths amortize
// clock reads; a refusal falls back to Wait, which reads the clock):
// refill never runs backwards, but a take at a stale instant s can
// over-admit, by up to rate × (now − s) at one instant now (see
// refillLocked). Granted stays exact.
func (b *Bucket) TakeAt(n float64, now time.Time) bool {
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
	// Share fast path: the stripe's own cell, no lock.
	if b.sharing.Load() && b.cells[b.stripeOf()].spend(n) {
		return true
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.refillLocked(now)
	if b.out > 0 {
		b.reclaimLocked(n)
	}
	ok := b.tokens >= n
	if ok {
		b.tokens -= n
		b.addGranted(n)
		if b.stripeOf != nil && b.tokens-shareLot >= b.capacity/2 {
			b.handOutLocked()
		}
		b.publishSharingLocked()
	}
	b.mu.Unlock()
	return ok
}

// Wait takes n tokens, blocking until they have accrued. A request that
// finds the bucket dry reserves: it takes its tokens at once, driving the
// fill negative — so every later arrival, by any admission style, queues
// behind it, and a request larger than the burst is not starved — and
// sleeps once, until refill has covered the debt up to its place. Every
// share is taken back before a reservation, so the debt is only what the
// whole content lacks. If the bucket is closed meanwhile the request
// hands its tokens back and returns ErrClosed.
func (b *Bucket) Wait(n float64) error {
	if n <= 0 {
		return nil
	}
	// Unlimited and share fast paths; see TakeAt.
	if b.unlimitedA.Load() {
		if b.closedA.Load() {
			return ErrClosed
		}
		b.addGranted(n)
		return nil
	}
	if b.sharing.Load() && b.cells[b.stripeOf()].spend(n) {
		return nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.refillLocked(b.clk.Now()) // Wait refills to the exact instant; the stage tries TakeAt on an amortized one first
	if b.out > 0 {
		b.reclaimLocked(n)
	}
	b.tokens -= n
	if b.tokens >= 0 {
		b.addGranted(n)
		if b.stripeOf != nil && b.tokens-shareLot >= b.capacity/2 {
			b.handOutLocked()
		}
		b.publishSharingLocked()
		b.mu.Unlock()
		return nil
	}
	b.reserved += n
	place := b.reserved
	s, _ := b.timers.Get().(*sleepTimer)
	if s == nil {
		s = newSleepTimer(b.clk)
	}
	for {
		// Owed up to this request's place: the debt less what queues behind.
		owed := -b.tokens - (b.reserved - place)
		if b.closed || owed <= 0 {
			break
		}
		// Rounded to the nanosecond, and capped (a century and a half) so
		// that a near-zero rate cannot overflow time.Duration.
		s.t.Reset(time.Duration(min(owed*float64(time.Second)/b.rate+0.5, 1<<62)))
		b.sleeps++
		retune := b.retune
		b.mu.Unlock()
		select {
		case <-s.woke:
			b.timers.Put(s)
			b.addGranted(n)
			return nil
		case <-retune:
			// A timer that has fired has sent, or is sending, its one
			// wake-up: take it, so that no stale expiry cuts the next
			// sleep short.
			if !s.t.Stop() {
				<-s.woke
			}
		}
		b.mu.Lock()
		b.refillLocked(b.clk.Now()) // a broadcast moved the deadline; what is owed is recomputed exactly
	}
	var err error
	if b.closed {
		b.tokens += n
		err = ErrClosed
	} else {
		b.addGranted(n)
	}
	b.mu.Unlock()
	b.timers.Put(s)
	return err
}

// sleepTimer is Wait's pooled sleep: a timer on the bucket's clock and
// the one-slot channel its expiry sends on.
type sleepTimer struct {
	t    clock.FuncTimer
	woke chan struct{}
}

func newSleepTimer(clk clock.Clock) *sleepTimer {
	s := &sleepTimer{woke: make(chan struct{}, 1)}
	s.t = clk.NewFuncTimer(func() { s.woke <- struct{}{} })
	return s
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
	b.takeBackAllLocked()
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

// Close releases all waiters with ErrClosed and rejects future
// admissions; the shares out return to the fill first.
func (b *Bucket) Close() {
	b.mu.Lock()
	if !b.closed {
		b.takeBackAllLocked()
		b.closed = true
		b.closedA.Store(true)
		b.broadcastLocked()
	}
	b.mu.Unlock()
}
