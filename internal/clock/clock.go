// Package clock abstracts time so that every rate-sensitive component in
// PADLL (token buckets, feedback control loops, trace replay) can run
// either against the wall clock or against a simulated clock that replays
// a 45-minute experiment in milliseconds with identical arithmetic.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the caller for d. On a simulated clock the caller is
	// parked until the simulation advances past Now()+d.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a stopped, reusable deadline timer on this clock.
	NewTimer() Timer
}

// Timer is a reusable one-shot deadline for a single owner: where After
// costs a channel and a parked waiter per use — and leaves both behind
// until the deadline passes even when nobody is listening any more — a
// Timer is armed and disarmed in place, so a caller that bounds every
// operation with a deadline that almost never expires pays no
// allocation for it. It is not safe for concurrent use; only its owner
// receives from C.
type Timer interface {
	// C is the channel the expiry is delivered on; it is the same
	// channel for the timer's whole life.
	C() <-chan time.Time
	// Reset arms the timer to fire once d from now, replacing any
	// pending deadline and discarding an expiry not yet received.
	Reset(d time.Duration)
	// Stop disarms the timer and discards an expiry not yet received:
	// after Stop, C stays empty until the next Reset fires. It reports
	// whether the timer was still pending.
	Stop() bool
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// NewReal returns the wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer() Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return realTimer{t}
}

// realTimer is a Timer on a time.Timer. go.mod's language version
// predates go1.23's timer channels, so an expiry may already sit in the
// channel when the timer is stopped: Stop drains it, and Reset stops
// first.
type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }

func (r realTimer) Reset(d time.Duration) {
	r.Stop()
	r.t.Reset(d)
}

func (r realTimer) Stop() bool {
	pending := r.t.Stop()
	if !pending {
		select {
		case <-r.t.C:
		default:
		}
	}
	return pending
}

// Sim is a manually advanced simulated clock. Goroutines that Sleep or
// select on After are parked in a waiter queue ordered by deadline and are
// released when Advance (or AdvanceTo) moves the clock past their deadline.
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64 // tiebreaker so equal deadlines release FIFO
	// parked is signalled whenever a waiter joins the heap (BlockUntil).
	parked sync.Cond
}

// NewSim returns a simulated clock whose current instant is start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.parked.L = &s.mu
	return s
}

// parkLocked adds w to the waiter heap. Caller holds s.mu.
func (s *Sim) parkLocked(w *waiter) {
	s.seq++
	w.seq = s.seq
	heap.Push(&s.waiters, w)
	s.parked.Broadcast()
}

// BlockUntil blocks the caller until at least n waiters are parked on
// the clock: the event a test waits for before it advances the clock
// under a goroutine it expects to be sleeping.
func (s *Sim) BlockUntil(n int) {
	s.mu.Lock()
	for len(s.waiters) < n {
		s.parked.Wait() //lint:allow lockcheck Cond.Wait releases s.mu for as long as it blocks
	}
	s.mu.Unlock()
}

type waiter struct {
	deadline time.Time
	seq      int64
	ch       chan time.Time
	// idx is the waiter's position in the heap (-1 when not parked), so
	// a timer can withdraw its waiter before the deadline.
	idx int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	w.idx = -1
	return w
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock. It parks the calling goroutine until the clock
// is advanced past Now()+d. Sleeping for d <= 0 returns immediately.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.now //lint:allow lockcheck ch is freshly made with capacity 1; the send cannot block
		return ch
	}
	s.parkLocked(&waiter{deadline: s.now.Add(d), ch: ch})
	return ch
}

// NewTimer implements Clock. The timer parks on the same waiter heap
// as Sleep and After — an armed timer counts in PendingWaiters and
// NextDeadline, and fires in deadline order with them — but reuses one
// waiter and one channel for its whole life.
func (s *Sim) NewTimer() Timer {
	return &simTimer{s: s, w: waiter{ch: make(chan time.Time, 1), idx: -1}}
}

type simTimer struct {
	s *Sim
	w waiter
}

func (t *simTimer) C() <-chan time.Time { return t.w.ch }

func (t *simTimer) Reset(d time.Duration) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.stopLocked()
	if d <= 0 {
		t.w.ch <- t.s.now //lint:allow lockcheck ch has capacity 1 and stopLocked just emptied it; the send cannot block
		return
	}
	t.w.deadline = t.s.now.Add(d)
	t.s.parkLocked(&t.w)
}

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.stopLocked()
}

// stopLocked withdraws the waiter if it is parked and empties the
// channel if it already fired. Caller holds s.mu, which every firing
// also holds, so the two cases are exclusive.
func (t *simTimer) stopLocked() bool {
	if t.w.idx >= 0 {
		heap.Remove(&t.s.waiters, t.w.idx)
		return true
	}
	select {
	case <-t.w.ch:
	default:
	}
	return false
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline falls within the advanced window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.AdvanceToLocked(s.now.Add(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to instant t (no-op if t is not after
// the current instant), releasing waiters in deadline order.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.AdvanceToLocked(t)
	s.mu.Unlock()
}

// AdvanceToLocked is Advance's core; the caller must hold s.mu.
func (s *Sim) AdvanceToLocked(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for len(s.waiters) > 0 && !s.waiters[0].deadline.After(t) {
		w := heap.Pop(&s.waiters).(*waiter)
		// Waiters observe the clock at their own deadline, not the final
		// target, so cascaded timers fire in causal order.
		if w.deadline.After(s.now) {
			s.now = w.deadline
		}
		w.ch <- s.now
	}
	s.now = t
}

// PendingWaiters reports how many goroutines are currently parked on the
// clock. Useful for tests and for the simulator's quiescence detection.
func (s *Sim) PendingWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// NextDeadline returns the earliest parked deadline and true, or the zero
// time and false when no waiter is parked.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		return time.Time{}, false
	}
	return s.waiters[0].deadline, true
}
