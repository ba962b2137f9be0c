// Package clock abstracts time so that every rate-sensitive component in
// PADLL (token buckets, feedback control loops, trace replay) can run
// either against the wall clock or against a simulated clock that replays
// a 45-minute experiment in milliseconds with identical arithmetic.
//
// There are two ways to wait on a clock: Sleep, and a FuncTimer, whose
// expiry runs a function. An owner that must also wait on something
// else arms a timer whose function sends on a one-slot channel, and
// selects on that channel; under Sim.Drive every timer's function must
// wake the actor that armed it.
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
	// NewFuncTimer returns a stopped, reusable deadline timer on this
	// clock that runs f, on a goroutine of its own, each time it expires.
	NewFuncTimer(f func()) FuncTimer
}

// FuncTimer is a reusable one-shot deadline for a single owner with
// time.AfterFunc's contract: each expiry runs the timer's function. It
// is armed and disarmed in place, so an owner that bounds every
// operation with a deadline that almost never expires pays no
// allocation for it. It is not safe for concurrent use.
type FuncTimer interface {
	// Reset arms the timer to run its function once d from now,
	// replacing any pending deadline.
	Reset(d time.Duration)
	// Stop disarms the timer and reports whether it was still pending:
	// false means the function has run or is running.
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

// NewFuncTimer implements Clock.
func (Real) NewFuncTimer(f func()) FuncTimer {
	t := time.AfterFunc(time.Hour, f)
	t.Stop()
	return realFuncTimer{t}
}

type realFuncTimer struct{ *time.Timer }

func (r realFuncTimer) Reset(d time.Duration) { r.Timer.Reset(d) }

// Sim is a manually advanced simulated clock. Sleepers and armed timers
// are parked in a waiter queue ordered by deadline and are released when
// Advance (or AdvanceTo) moves the clock past their deadline.
//
// The zero value is not usable; construct with NewSim.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64 // tiebreaker so equal deadlines release FIFO
	// parked is signalled whenever a waiter joins the heap (BlockUntil)
	// and whenever live drops to zero (Drive).
	parked sync.Cond
	// driving is set for the length of a Drive; live then counts the
	// actors that are running: neither parked on the clock nor blocked in
	// Group.Wait.
	driving bool
	live    int
}

// NewSim returns a simulated clock whose current instant is start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.parked.L = &s.mu
	return s
}

// parkLocked adds w to the waiter heap; under Drive the caller, an
// actor, stops counting as live. Caller holds s.mu.
func (s *Sim) parkLocked(w *waiter) {
	s.seq++
	w.seq = s.seq
	heap.Push(&s.waiters, w)
	if s.driving {
		s.live--
	}
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

// waiter is one parked deadline — a sleeper's, a timer's, or an actor's
// first turn under Drive — whose expiry runs fn.
type waiter struct {
	deadline time.Time
	seq      int64
	fn       func()
	// idx is the waiter's position in the heap (-1 when not parked), so
	// a timer can withdraw its waiter before the deadline.
	idx int
}

// fire runs the waiter's function on a goroutine of its own.
func (w *waiter) fire() {
	go w.fn() //lint:allow leakcheck the waiter's owner waits for its function, as for time.AfterFunc's
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
	woke := make(chan struct{})
	s.mu.Lock()
	s.parkLocked(&waiter{deadline: s.now.Add(d), fn: func() { close(woke) }})
	s.mu.Unlock()
	<-woke
}

// NewFuncTimer implements Clock. The timer parks on the same waiter heap
// as Sleep — an armed timer counts in PendingWaiters and NextDeadline,
// and fires in deadline order with every other waiter — but reuses one
// waiter for its whole life.
func (s *Sim) NewFuncTimer(f func()) FuncTimer {
	return &simTimer{s: s, w: waiter{fn: f, idx: -1}}
}

type simTimer struct {
	s *Sim
	w waiter
}

func (t *simTimer) Reset(d time.Duration) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.stopLocked()
	if d <= 0 {
		t.w.fire()
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

// stopLocked withdraws the waiter if it is parked. Caller holds s.mu,
// which every firing also holds, so a waiter that is not parked has
// fired.
func (t *simTimer) stopLocked() bool {
	if t.w.idx < 0 {
		return false
	}
	heap.Remove(&t.s.waiters, t.w.idx)
	if t.s.driving {
		t.s.live++ // the owner is running again: parkLocked counted it out
	}
	return true
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline falls within the advanced window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.advanceLocked(s.now.Add(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to instant t (no-op if t is not after
// the current instant), releasing waiters in deadline order.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.advanceLocked(t)
	s.mu.Unlock()
}

// advanceLocked is Advance's core; the caller holds s.mu.
func (s *Sim) advanceLocked(t time.Time) {
	if t.Before(s.now) {
		return
	}
	for len(s.waiters) > 0 && !s.waiters[0].deadline.After(t) {
		heap.Pop(&s.waiters).(*waiter).fire()
	}
	s.now = t
}

// PendingWaiters reports how many sleepers and armed timers are parked
// on the clock. Useful for tests and for the simulator's quiescence detection.
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
