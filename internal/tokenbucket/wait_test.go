package tokenbucket

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
)

// The waiting path's properties, on a simulated clock only: a request
// that finds the bucket dry reserves its slot and sleeps once, so
// admission order and admission instants are facts of the arithmetic,
// not of the scheduler.

// sleepsOf reads the count of armed sleeps.
func sleepsOf(b *Bucket) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sleeps
}

// awaitSleeps returns once b has armed n sleeps in total: every sleeper
// a broadcast woke has re-timed itself on the clock.
func awaitSleeps(b *Bucket, n uint64) {
	for sleepsOf(b) < n {
		runtime.Gosched()
	}
}

// retuning calls retune(0), retune(1), … on a goroutine of its own until
// the returned stop is called; stop returns once the goroutine has.
func retuning(retune func(i int)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
				retune(i)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// ones is k requests of one token each.
func ones(k int) []float64 {
	sizes := make([]float64, k)
	for i := range sizes {
		sizes[i] = 1
	}
	return sizes
}

// parkInOrder drains b and parks one waiter per size, in index order;
// each reports its index on the returned channel when admitted.
func parkInOrder(t *testing.T, clk *clock.Sim, b *Bucket, sizes []float64) <-chan int {
	t.Helper()
	if !b.TryTake(b.Capacity()) {
		t.Fatal("drain failed")
	}
	admitted := make(chan int, len(sizes))
	for i, n := range sizes {
		go func(i int, n float64) {
			if err := b.Wait(n); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			admitted <- i
		}(i, n)
		clk.BlockUntil(i + 1) // waiter i holds its place before i+1 arrives
	}
	return admitted
}

// expectNext advances clk to the next parked deadline, which must be
// at, and must release exactly waiter want.
func expectNext(t *testing.T, clk *clock.Sim, admitted <-chan int, want int, at time.Time) {
	t.Helper()
	next, ok := clk.NextDeadline()
	if !ok || !next.Equal(at) {
		t.Fatalf("waiter %d: next deadline %v (parked: %v), want %v", want, next.Sub(epoch), ok, at.Sub(epoch))
	}
	clk.AdvanceTo(next)
	select {
	case got := <-admitted:
		if got != want {
			t.Fatalf("at %v waiter %d was admitted, want waiter %d", at.Sub(epoch), got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter %d not admitted at its deadline %v", want, at.Sub(epoch))
	}
	select {
	case got := <-admitted:
		t.Fatalf("waiter %d admitted together with waiter %d", got, want)
	default:
	}
}

// TestWaitFIFOAcrossRetunes: k waiters parked in a known order are
// admitted in that order, waiter i at exactly t0 + (i+1)/rate, and a
// retune in mid-queue — up, then down — re-times the rest from the
// instant of the retune at the new rate without reordering them.
func TestWaitFIFOAcrossRetunes(t *testing.T) {
	const k = 12
	clk := clock.NewSim(epoch)
	b := New(clk, 1000, 4)
	admitted := parkInOrder(t, clk, b, ones(k))
	if got := sleepsOf(b); got != k {
		t.Fatalf("%d sleeps armed for %d parked waiters", got, k)
	}
	if b.TryTake(1) || b.TakeAt(1, clk.Now()) {
		t.Fatal("an arrival barged past the parked waiters")
	}

	at := epoch
	for i := 0; i < 4; i++ { // 1000/s: one per millisecond
		at = at.Add(time.Millisecond)
		expectNext(t, clk, admitted, i, at)
	}
	b.Set(2000, 4) // up: one per 500 µs from here
	awaitSleeps(b, k+8)
	for i := 4; i < 8; i++ {
		at = at.Add(500 * time.Microsecond)
		expectNext(t, clk, admitted, i, at)
	}
	b.Set(500, 4) // down: one per 2 ms from here
	awaitSleeps(b, k+8+4)
	for i := 8; i < k; i++ {
		at = at.Add(2 * time.Millisecond)
		expectNext(t, clk, admitted, i, at)
	}
	if got := b.Granted(); got != 4+k {
		t.Errorf("Granted = %v, want %d (the drained burst and %d waiters)", got, 4+k, k)
	}
	if n := clk.PendingWaiters(); n != 0 {
		t.Errorf("%d timers still armed after the last admission", n)
	}
}

// TestWaitFIFOMixedSizes: the order holds for requests of unequal size,
// each admitted when refill has covered everything up to its place —
// including one larger than the burst.
func TestWaitFIFOMixedSizes(t *testing.T) {
	sizes := []float64{1, 7, 2, 30, 1}
	clk := clock.NewSim(epoch)
	b := New(clk, 1000, 10)
	admitted := parkInOrder(t, clk, b, sizes)
	var ahead float64
	for i, n := range sizes {
		ahead += n
		expectNext(t, clk, admitted, i, epoch.Add(time.Duration(ahead)*time.Millisecond))
	}
}

// TestWaitSleepsOncePerWaiter: with nothing retuning, every admitted
// waiter passed through the sleep exactly once, however many were
// parked together and however coarsely the clock moved.
func TestWaitSleepsOncePerWaiter(t *testing.T) {
	const k = 64
	clk := clock.NewSim(epoch)
	b := New(clk, 2000, 200)
	admitted := parkInOrder(t, clk, b, ones(k))
	for clk.PendingWaiters() > 0 {
		clk.Advance(1100 * time.Microsecond) // a runtime timer quantum
	}
	for i := 0; i < k; i++ {
		<-admitted
	}
	if got := sleepsOf(b); got != k {
		t.Errorf("%d waiters admitted through %d sleeps, want one each", k, got)
	}
}

// TestWaitAdherenceAtBurstOne: 8 waiters contend for a 2,000 tokens/s
// bucket of burst 1 while the clock moves only in 1.1 ms steps — the
// granularity at which a runtime timer wakes a sleeper. Reservations
// accrue while their owners oversleep, so the limit is still delivered:
// 2,000 ± 8 admissions in one second. (A bucket whose waiters take their
// tokens only once awake caps the fill at one token per step and admits
// about 910.)
func TestWaitAdherenceAtBurstOne(t *testing.T) {
	const (
		waiters = 8
		rate    = 2000
		step    = 1100 * time.Microsecond
	)
	clk := clock.NewSim(epoch)
	b := New(clk, rate, 1)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b.Wait(1) == nil {
				admitted.Add(1)
			}
		}()
	}
	// The bucket is in debt from the second request on: between steps
	// every waiter is parked, having counted its last admission.
	clk.BlockUntil(waiters)
	for elapsed := step; elapsed <= time.Second; elapsed += step {
		clk.Advance(step)
		clk.BlockUntil(waiters)
	}
	got := admitted.Load()
	b.Close()
	wg.Wait()
	if got < rate-waiters || got > rate+waiters {
		t.Errorf("admitted %d in 1 s of 1.1 ms steps, want %d ± %d", got, rate, waiters)
	}
	if g := b.Granted(); g != float64(got) {
		t.Errorf("Granted = %v after Close, want the %d admitted: a released sleeper kept its reservation", g, got)
	}
}

// lateStopClock is a simulated clock on which a timer's first Stop
// comes too late: before it disarms anything it runs the clock to the
// timer's deadline and waits for the function to have run — an expiry
// that lands between a retune broadcast waking the sleeper and the
// sleeper stopping its timer. Every Reset reports its duration on armed.
type lateStopClock struct {
	*clock.Sim
	armed chan time.Duration
}

type lateStopTimer struct {
	clock.FuncTimer
	c    *lateStopClock
	ran  chan struct{}
	d    time.Duration
	late bool
}

func (c *lateStopClock) NewFuncTimer(f func()) clock.FuncTimer {
	t := &lateStopTimer{c: c, ran: make(chan struct{}, 1)}
	t.FuncTimer = c.Sim.NewFuncTimer(func() { f(); t.ran <- struct{}{} })
	return t
}

func (t *lateStopTimer) Reset(d time.Duration) {
	t.d = d
	t.FuncTimer.Reset(d)
	t.c.armed <- d
}

func (t *lateStopTimer) Stop() bool {
	if !t.late {
		t.late = true
		t.c.Advance(t.d)
		<-t.ran
	}
	return t.FuncTimer.Stop()
}

// TestWaitStaleExpiryDoesNotShortenTheNextSleep: a sleeper that a
// retune wakes after its timer has fired takes that expiry before it
// sleeps again, so its next sleep lasts all it owes.
func TestWaitStaleExpiryDoesNotShortenTheNextSleep(t *testing.T) {
	clk := &lateStopClock{Sim: clock.NewSim(epoch), armed: make(chan time.Duration, 2)} // one per sleep
	b := New(clk, 1, 1)
	if !b.TryTake(1) {
		t.Fatal("drain failed")
	}
	admitted := make(chan time.Time, 1)
	go func() {
		if err := b.Wait(1); err != nil {
			t.Errorf("Wait: %v", err)
		}
		admitted <- clk.Now()
	}()
	if d := <-clk.armed; d != time.Second {
		t.Fatalf("first sleep armed for %v, want 1s", d)
	}
	// The broadcast wins; by the time the sleeper stops its timer the
	// first second has passed, and at half the rate the half token
	// still owed takes another second.
	b.Set(0.5, 1)
	if d := <-clk.armed; d != time.Second {
		t.Fatalf("second sleep armed for %v, want 1s", d)
	}
	select {
	case at := <-admitted:
		t.Fatalf("admitted at +%v, before its second sleep ran out", at.Sub(epoch))
	case <-time.After(50 * time.Millisecond):
	}
	clk.Advance(time.Second)
	if at := <-admitted; !at.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("admitted at +%v, want +2s", at.Sub(epoch))
	}
}
