package tokenbucket

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll/internal/clock"
)

// The share rules, checked against the mutex-only bucket. A bucket on a
// simulated clock never shares; these tests turn sharing on by hand
// (sharing) and name each caller's stripe, so a schedule is a fact of
// its bytes and not of the scheduler.

// sharing turns shares on for a bucket on a simulated clock: its callers
// are on the stripe *stripe names.
func sharing(b *Bucket, stripe *int) *Bucket {
	b.stripeOf = func() int { return *stripe }
	return b
}

// Rates and capacities a share schedule draws from: capacities below
// 2 × shareLot never hand out a share, so the schedules that keep to
// them must decide exactly as the mutex-only bucket does.
var (
	shareRates = [...]float64{1000, 50, 20_000, 1e6}
	shareCaps  = [...]float64{100, 10, 500, 63, 2000}
)

// shareStripes is how many stripes a schedule spreads its callers over.
const shareStripes = 4

// shareEvent is one step of a schedule as the envelope check reads it:
// the tokens admitted at an instant and the limits in effect around it.
type shareEvent struct {
	at                  time.Time
	took                float64
	capBefore, capAfter float64
	rateAfter           float64
}

// shareRun drives one schedule through three buckets on one simulated
// clock: b shares; ref is mutex-only and makes its own decisions, which
// b's must equal until b first hands out a share; shadow is mutex-only
// and is charged with b's admissions, so it holds what a mutex-only
// bucket would hold at each instant and must never be overdrawn.
type shareRun struct {
	t              *testing.T
	clk            *clock.Sim
	b, ref, shadow *Bucket
	events         []shareEvent
	admitted       float64
	rate, capacity float64
	stripe         int // the stripe b's next caller is on
	// stale says a take was made at an instant behind the clock. Such a
	// take is settled as of its own instant, a spend from a share as of
	// the bucket's refill cursor, so from then on neither the envelope
	// nor the shadow, which read the clock's instants, applies.
	stale bool
}

func newShareRun(t *testing.T, rate, capacity float64) *shareRun {
	clk := clock.NewSim(epoch)
	r := &shareRun{
		t: t, clk: clk,
		ref:    New(clk, rate, capacity),
		shadow: New(clk, rate, capacity),
		rate:   rate, capacity: capacity,
	}
	r.b = sharing(New(clk, rate, capacity), &r.stripe)
	return r
}

// record appends the step that admitted took tokens at the current
// instant, under capBefore and the limits now in effect.
func (r *shareRun) record(took, capBefore float64) {
	r.events = append(r.events, shareEvent{at: r.clk.Now(), took: took, capBefore: capBefore, capAfter: r.capacity, rateAfter: r.rate})
}

// charge books an admission of n by b at instant now on the shadow
// bucket, which must have held n then.
func (r *shareRun) charge(n float64, now time.Time) {
	r.t.Helper()
	s := r.shadow
	s.mu.Lock()
	s.refillLocked(now)
	s.tokens -= n
	left := s.tokens
	s.mu.Unlock()
	if left < -1e-9 && !r.stale {
		r.t.Fatalf("at +%v the shares admitted %v tokens more than a mutex-only bucket holds", r.clk.Now().Sub(epoch), -left)
	}
	r.admitted += n
}

// take is one TakeAt on stripe at instant now, on b and ref.
func (r *shareRun) take(n float64, now time.Time, stripe int) bool {
	r.t.Helper()
	comparable := r.b.cells == nil
	r.stripe = stripe
	ok := r.b.TakeAt(n, now)
	if want := r.ref.TakeAt(n, now); comparable && ok != want {
		r.t.Fatalf("at +%v TakeAt(%v) on stripe %d = %v, the mutex-only bucket says %v with no share ever handed out", r.clk.Now().Sub(epoch), n, stripe, ok, want)
	}
	if ok {
		r.charge(n, now)
	}
	return ok
}

// checkContent compares b's content with the shadow's, and with ref's
// while no share has been handed out.
func (r *shareRun) checkContent() {
	r.t.Helper()
	comparable := r.b.cells == nil
	got, want := r.b.Tokens(), r.ref.Tokens()
	if comparable && got != want {
		r.t.Fatalf("at +%v Tokens = %v, the mutex-only bucket holds %v with no share ever handed out", r.clk.Now().Sub(epoch), got, want)
	}
	if most := r.shadow.Tokens(); got > most+1e-9 && !r.stale {
		r.t.Fatalf("at +%v the bucket holds %v tokens, a mutex-only bucket at most %v", r.clk.Now().Sub(epoch), got, most)
	}
}

// checkGranted holds Granted to the admissions counted.
func (r *shareRun) checkGranted() {
	r.t.Helper()
	if got := r.b.Granted(); math.Abs(got-r.admitted) > 1e-9 {
		r.t.Fatalf("at +%v Granted = %v, %v admitted", r.clk.Now().Sub(epoch), got, r.admitted)
	}
}

// step runs one operation, an opcode and its argument byte.
func (r *shareRun) step(op, arg byte) {
	r.t.Helper()
	capBefore := r.capacity
	var took float64
	switch op % 6 {
	case 0: // time passes: 0 to 1.02 s
		r.clk.Advance(time.Duration(arg) * 4 * time.Millisecond)
	case 1: // TakeAt on the clock's instant (TryTake)
		n := float64(1 + (arg>>2)%3)
		if r.take(n, r.clk.Now(), int(arg)%shareStripes) {
			took = n
		}
	case 2: // TakeAt on a stale instant
		r.stale = r.stale || arg > 0
		if r.take(1, r.clk.Now().Add(-time.Duration(arg)*time.Millisecond), int(arg)%shareStripes) {
			took = 1
		}
	case 3:
		r.rate, r.capacity = shareRates[arg%4], shareCaps[(arg>>2)%5]
		r.b.Set(r.rate, r.capacity)
		r.ref.Set(r.rate, r.capacity)
		r.shadow.Set(r.rate, r.capacity)
	case 4:
		r.checkContent()
	case 5: // a burst on one stripe: take until refused
		for i := 0; i < 4096 && r.take(1, r.clk.Now(), int(arg)%shareStripes); i++ {
			took++
		}
	}
	r.record(took, capBefore)
	r.checkGranted()
}

// checkEnvelope holds every window of a schedule that made no stale
// take to the token-bucket envelope: what was admitted at instants in
// [t_i, t_j] is at most the largest capacity in effect then plus the
// refill the window's rates accrue over its length. (A mutex-only
// bucket given a stale instant breaks the envelope on the clock's
// instants too.)
func (r *shareRun) checkEnvelope() {
	r.t.Helper()
	if r.stale {
		return
	}
	for i, first := range r.events {
		took, refill, capacity := 0.0, 0.0, first.capBefore
		for j := i; j < len(r.events); j++ {
			e := r.events[j]
			if j > i {
				prev := r.events[j-1]
				refill += prev.rateAfter * e.at.Sub(prev.at).Seconds()
			}
			took += e.took
			capacity = math.Max(capacity, e.capAfter)
			if bound := capacity + refill; took > bound*(1+1e-12)+1e-9 {
				r.t.Fatalf("%v tokens admitted in [+%v, +%v], the envelope allows %v", took, first.at.Sub(epoch), e.at.Sub(epoch), bound)
			}
		}
	}
}

// runShareSchedule decodes and runs a schedule: a rate and a capacity
// byte, then opcode/argument pairs; it ends with a Close, after which
// nothing may be admitted on any stripe.
func runShareSchedule(t *testing.T, data []byte) *shareRun {
	t.Helper()
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	r := newShareRun(t, shareRates[data[0]%4], shareCaps[data[1]%5])
	ops := data[2:]
	for i := 0; i+1 < len(ops); i += 2 {
		r.step(ops[i], ops[i+1])
	}
	r.checkContent()
	r.checkEnvelope()
	r.b.Close()
	for r.stripe = 0; r.stripe < shareStripes; r.stripe++ {
		if r.b.TakeAt(1, r.clk.Now()) || r.b.Wait(1) != ErrClosed {
			t.Fatalf("stripe %d admitted after Close", r.stripe)
		}
	}
	r.checkGranted()
	return r
}

// burstAfterIdle is the schedule a lumped refill gets wrong: a full
// bucket of rate 1,000/s and capacity 100 hands one share out, sits idle
// for a second and takes a burst on the stripe that holds the share.
var burstAfterIdle = []byte{0, 0, 1, 0, 0, 250, 5, 0}

// FuzzBucketShares is a differential test of the sharing bucket against
// the mutex-only one: on every schedule admissions keep to the envelope
// and to what a mutex-only bucket holds at each instant, Granted counts
// them exactly, and until a share is handed out every decision and
// every content reading equals the mutex-only bucket's.
func FuzzBucketShares(f *testing.F) {
	f.Add(burstAfterIdle)
	f.Add([]byte{0, 1, 1, 0, 5, 1, 0, 10, 1, 3, 5, 2, 4, 0, 0, 100, 5, 0, 4, 0})     // capacity 10: never shares
	f.Add([]byte{2, 4, 1, 0, 1, 1, 1, 2, 1, 3, 0, 1, 5, 2, 2, 9, 4, 0, 3, 5, 1, 1})  // 20,000/s, 2,000: four stripes share
	f.Add([]byte{3, 2, 1, 0, 1, 5, 0, 0, 5, 1, 3, 4, 0, 2, 5, 3, 4, 0, 3, 10, 5, 0}) // retunes with shares out
	f.Add([]byte{0, 2, 1, 0, 1, 1, 0, 25, 2, 200, 2, 1, 5, 3, 0, 250, 5, 1, 4, 0})   // stale instants
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runShareSchedule(t, data)
	})
}

// TestSharesBurstAfterIdle: the share spent after a second of idling
// draws on content the refill may not credit again, so the burst admits
// the capacity, 100, as the mutex-only bucket does; a refill capped at
// the capacity alone lets 132 through.
func TestSharesBurstAfterIdle(t *testing.T) {
	r := runShareSchedule(t, burstAfterIdle)
	if got := r.events[2].took; got != 100 {
		t.Errorf("the burst after a second idle admitted %v, want the capacity, 100", got)
	}
	if r.b.cells == nil {
		t.Fatal("no share was handed out: the schedule did not test the refill")
	}
}

// TestWaitTakesSharesBackBeforeReserving: shares left on an idle stripe
// return to the fill before a Wait reserves debt, so its sleep is only
// what the whole content lacks.
func TestWaitTakesSharesBackBeforeReserving(t *testing.T) {
	clk := clock.NewSim(epoch)
	stripe := 1
	b := sharing(New(clk, 1000, 100), &stripe)
	if !b.TakeAt(1, clk.Now()) {
		t.Fatal("first take refused")
	}
	if got := b.cells[1].handed; got != shareLot {
		t.Fatalf("stripe 1 was handed %v, want a lot of %d", got, shareLot)
	}
	stripe = 0
	for i := 0; i < 100-1-shareLot; i++ { // the fill, on stripe 0
		if !b.TakeAt(1, clk.Now()) {
			t.Fatalf("take %d of the fill refused", i)
		}
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(40) }()
	clk.BlockUntil(1)
	// 40 tokens wanted, stripe 1's 32 returned: 8 owed at 1,000/s.
	if next, _ := clk.NextDeadline(); !next.Equal(epoch.Add(8 * time.Millisecond)) {
		t.Fatalf("the waiter sleeps until +%v, want +8ms", next.Sub(epoch))
	}
	clk.Advance(8 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := b.Granted(); got != 1+100-1-shareLot+40 {
		t.Errorf("Granted = %v, want %d", got, 1+100-1-shareLot+40)
	}
}

// TestSharesRealClockHammer races TakeAt, TryTake and Wait callers on
// one bucket on the real clock, with retunes and a Close among them:
// every admission is in Granted, and none begins after Close returns.
func TestSharesRealClockHammer(t *testing.T) {
	b := New(clock.NewReal(), 2e5, 1000)
	const (
		workers = 4
		perG    = 5000
	)
	var admitted atomic.Int64
	var closed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				after := closed.Load()
				var ok bool
				switch (g + i) % 3 {
				case 0:
					ok = b.TakeAt(1, time.Now())
				case 1:
					ok = b.TryTake(1)
				default:
					ok = b.Wait(1) == nil
				}
				if ok {
					admitted.Add(1)
				}
				if after {
					if ok {
						t.Errorf("worker %d admitted after Close", g)
					}
					return
				}
			}
		}(g)
	}
	for admitted.Load() < workers*perG/2 {
		time.Sleep(time.Millisecond)
	}
	b.Set(1e5, 500)
	b.Set(2e5, 1000)
	for admitted.Load() < workers*perG {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	closed.Store(true)
	wg.Wait()
	if got, want := b.Granted(), float64(admitted.Load()); got != want {
		t.Errorf("Granted = %v, %v admitted", got, want)
	}
	if b.cells == nil {
		t.Error("no share was handed out: the hammer did not reach the share path")
	}
}

// TestShareSpendZeroAllocs holds the share path to the admit path's
// zero-alloc contract, once the first handout has made the cells.
func TestShareSpendZeroAllocs(t *testing.T) {
	clk := clock.NewSim(epoch)
	var stripe int
	b := sharing(New(clk, 1e12, 1e12), &stripe)
	now := clk.Now()
	if !b.TakeAt(1, now) || b.cells == nil {
		t.Fatal("the first take handed out no share")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if !b.TakeAt(1, now) || b.Wait(1) != nil {
			t.Fatal("share path refused")
		}
	}); avg != 0 {
		t.Errorf("the share path allocates %.3f allocs/op, want 0", avg)
	}
	if b.Granted() != 2003 { // AllocsPerRun warms up once
		t.Errorf("Granted = %v, want 2003", b.Granted())
	}
}
